package sim

import (
	"math"
	"math/bits"

	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/trace"
)

func coreEngine(c cache.Cache, src *rng.Source) *core.Engine {
	return core.NewEngine(c, src)
}

// mshrEntry is one miss-queue slot: an outstanding request to the L2/DRAM.
// Whether the slot is occupied, and whether its request is a background
// fill, live in the thread's busy and background bitmasks.
type mshrEntry struct {
	line mem.Line
	done float64
	// fillL1 applies the line to the L1 on completion (normal demand
	// fill, random fill, prefetch). NoFill demand entries have it false.
	fillL1   bool
	dirty    bool
	offset   int8
	prefetch bool
}

// Result summarizes a thread's execution.
type Result struct {
	Cycles       float64
	Instructions uint64
	// Hits and Misses are demand L1 accesses; Merged are demand misses
	// that merged with an outstanding miss to the same line (excluded
	// from MPKI, per the paper's MPKI definition in Section VII).
	Hits   uint64
	Misses uint64
	Merged uint64
	// SecretBypass counts accesses that bypassed the L1 entirely
	// (ModeDisableSecret).
	SecretBypass uint64
	// RandomFills and Prefetches count background fills applied to L1.
	RandomFills uint64
	Prefetches  uint64
	// StallCycles accumulates time spent waiting for a free miss-queue
	// entry or for dependence resolution.
	StallCycles float64
	// InformingTraps counts informing-load handler invocations.
	InformingTraps uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / r.Cycles
}

// MPKI returns demand L1 misses (merges excluded) per kilo-instruction.
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 1000 * float64(r.Misses) / float64(r.Instructions)
}

// Sub returns the difference r - prev of two snapshots of the same
// thread's counters, for steady-state measurement: warm the caches with one
// pass, snapshot, run the measured pass, and subtract.
func (r Result) Sub(prev Result) Result {
	return Result{
		Cycles:         r.Cycles - prev.Cycles,
		Instructions:   r.Instructions - prev.Instructions,
		Hits:           r.Hits - prev.Hits,
		Misses:         r.Misses - prev.Misses,
		Merged:         r.Merged - prev.Merged,
		SecretBypass:   r.SecretBypass - prev.SecretBypass,
		RandomFills:    r.RandomFills - prev.RandomFills,
		Prefetches:     r.Prefetches - prev.Prefetches,
		StallCycles:    r.StallCycles - prev.StallCycles,
		InformingTraps: r.InformingTraps - prev.InformingTraps,
	}
}

// HitRate returns demand hit rate over demand accesses.
func (r Result) HitRate() float64 {
	total := r.Hits + r.Misses + r.Merged
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// informingTrapCycles is the exception-delivery overhead of one informing
// load trap (pipeline flush + handler entry/exit).
const informingTrapCycles = 50

// domainCache is implemented by caches whose behaviour depends on the
// accessing trust domain (Newcache's and RPcache's per-domain mapping
// tables).
type domainCache interface {
	SetActiveDomain(int)
}

// Thread is one hardware thread: a fill-policy engine over the shared L1,
// a private miss queue, and a cycle clock.
type Thread struct {
	machine *Machine
	cfg     ThreadConfig
	engine  *core.Engine
	// l1 is the shared L1, the cache the engine fills.
	l1 cache.Cache
	// domainL1 is non-nil when the L1 is domain-aware; the thread selects
	// its trust domain each time it is entered (enter), which is part of
	// switching the hardware thread context.
	domainL1 domainCache
	cycle    float64
	// dataReady is when the most recent demand read's data becomes
	// available; a Dependent access cannot issue before it.
	dataReady float64
	mshr      []mshrEntry
	// busy has bit i set while miss-queue slot i holds an outstanding
	// request; background has it set when that request is a random fill
	// or prefetch, which produces no data for the processor. Every scan
	// visits the set bits in index order.
	busy, background uint64
	// fillsBlocked is set when issueFills stopped for want of a slot (the
	// queue is full, or the background entries are at their limit). Only
	// a retirement frees a slot, so it stays exact until retireDue clears
	// it, and serviceFills skips the attempt meanwhile.
	fillsBlocked bool
	// nextDone is the earliest completion time among valid miss-queue
	// entries (+Inf when there are none). Every issue lowers it and every
	// retirement scan recomputes it, so retire can return at once until an
	// entry is actually due.
	nextDone float64
	// fillQueue holds random-fill/prefetch requests waiting for a free
	// miss-queue slot (the "random fill queue" of Figure 3, which waits
	// for idle cycles). It is a head-indexed ring: fillHead marks the next
	// request to issue, and the slice is reset in place once drained, so
	// steady-state enqueue/dequeue reuses one backing array instead of
	// reslicing-and-appending fresh storage per request.
	fillQueue []core.Request
	fillHead  int
	res       Result
	// stepAccess and stepWord are Step's one-access trace and its compiled
	// form.
	stepAccess [1]mem.Access
	stepWord   trace.Compiled
}

// fillPending returns the number of queued background fills.
func (t *Thread) fillPending() int { return len(t.fillQueue) - t.fillHead }

// Engine returns the thread's random fill engine (to reprogram the window
// mid-run, modelling the set_RR system call).
func (t *Thread) Engine() *core.Engine { return t.engine }

// Cycle returns the thread's current cycle.
func (t *Thread) Cycle() float64 { return t.cycle }

// Result returns the thread's statistics with the clock snapshot.
func (t *Thread) Result() Result {
	r := t.res
	r.Cycles = t.cycle
	return r
}

// retire completes every miss-queue entry finished by time now, in index
// order, applying its L1 fill. It returns at once while the earliest
// completion (nextDone) is still in the future.
func (t *Thread) retire(now float64) {
	if t.nextDone > now {
		return
	}
	t.retireDue(now)
}

func (t *Thread) retireDue(now float64) {
	next := math.Inf(1)
	for m := t.busy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		e := &t.mshr[i]
		if e.done > now {
			if e.done < next {
				next = e.done
			}
			continue
		}
		if e.fillL1 {
			t.machine.fillL1(e.line, cache.FillOpts{
				Dirty:  e.dirty,
				Owner:  t.cfg.Owner,
				Offset: e.offset,
			})
			if t.background&(1<<i) != 0 {
				if e.prefetch {
					t.res.Prefetches++
				} else {
					t.res.RandomFills++
				}
			}
			if p := t.machine.Prefetcher; p != nil {
				p.OnFill(e.line, e.prefetch)
			}
		}
		t.busy &^= 1 << i
		t.background &^= 1 << i
	}
	t.nextDone = next
	t.fillsBlocked = false
}

// issue occupies miss-queue slot with request e.
func (t *Thread) issue(slot int, e mshrEntry) {
	t.mshr[slot] = e
	t.busy |= 1 << slot
	if e.done < t.nextDone {
		t.nextDone = e.done
	}
}

// waitData blocks the thread until the most recent demand read's data is
// available: the model of a load-to-use dependence. An out-of-order core
// overlaps independent misses freely; a Dependent access serializes behind
// exactly the previous load, not the whole miss queue.
func (t *Thread) waitData() {
	if t.dataReady > t.cycle {
		t.res.StallCycles += t.dataReady - t.cycle
		t.cycle = t.dataReady
	}
	t.retire(t.cycle)
}

// freeSlot returns a free miss-queue slot index for a demand request,
// stalling the thread until the earliest outstanding entry completes if the
// queue is full. Arbitration is FIFO: background fill requests that arrived
// in the fill queue before this demand miss are issued into freed slots
// first — fills and demands share the miss queue in arrival order rather
// than demands always winning (which would starve the random fill engine
// whenever the miss queue is saturated).
func (t *Thread) freeSlot() int {
	for {
		t.serviceFills()
		if i := t.trySlot(); i >= 0 {
			return i
		}
		// Queue full: wait for the earliest completion.
		t.res.StallCycles += t.nextDone - t.cycle
		t.cycle = t.nextDone
		t.retire(t.cycle)
	}
}

// trySlot returns the lowest free slot without stalling, or -1.
func (t *Thread) trySlot() int {
	if t.busy == t.slots() {
		return -1
	}
	return bits.TrailingZeros64(^t.busy)
}

// slots is the bitmask of every miss-queue slot.
func (t *Thread) slots() uint64 { return 1<<len(t.mshr) - 1 }

// pending reports whether line has an outstanding miss-queue entry, and its
// index.
func (t *Thread) pending(line mem.Line) int {
	for m := t.busy; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); t.mshr[i].line == line {
			return i
		}
	}
	return -1
}

// enqueueFill adds a background fill request to the fill queue, dropping it
// if the queue is full (the queue depth comes from Config.FillQueueCap).
func (t *Thread) enqueueFill(r core.Request) {
	if t.fillPending() >= t.machine.cfg.FillQueueCap {
		return
	}
	t.fillQueue = append(t.fillQueue, r)
}

// serviceFills issues queued background fills into free miss-queue slots.
// One slot is reserved for demand misses: background fills never occupy the
// whole miss queue, so a demand miss waits behind at most MissQueue-1
// fills (standard MSHR reservation for demand traffic).
func (t *Thread) serviceFills() {
	// An empty queue has already been rewound (issueFills rewinds it
	// whenever it drains), so there is nothing to do; a blocked queue
	// waits for a retirement.
	if t.fillPending() == 0 || t.fillsBlocked {
		return
	}
	t.issueFills()
}

func (t *Thread) issueFills() {
	for t.fillPending() > 0 {
		if len(t.mshr) > 1 && bits.OnesCount64(t.background) >= len(t.mshr)-1 {
			t.fillsBlocked = true
			return
		}
		slot := t.trySlot()
		if slot < 0 {
			t.fillsBlocked = true
			return
		}
		r := t.fillQueue[t.fillHead]
		t.fillHead++
		// Dropped if it hits in the tag array by now, or is already in
		// flight. (The tag check is skipped under the ablation that
		// keeps redundant fills.)
		if !t.cfg.KeepRedundantFills && t.l1.Probe(r.Line) {
			continue
		}
		if t.pending(r.Line) >= 0 {
			continue
		}
		lat := t.machine.fetchBelow(r.Line, false)
		t.issue(slot, mshrEntry{
			line:     r.Line,
			done:     t.cycle + float64(lat),
			fillL1:   true,
			offset:   r.Offset,
			prefetch: r.Type == prefetchRequest,
		})
		t.background |= 1 << slot
	}
	// Drained: rewind the ring so the backing array is reused.
	t.fillQueue = t.fillQueue[:0]
	t.fillHead = 0
}

// prefetchRequest is a core.RequestType value reserved for prefetcher
// requests travelling through the same fill queue.
const prefetchRequest core.RequestType = 255

// enter switches the hardware context to this thread: on a domain-aware L1
// it selects the thread's trust domain. Every entry point that runs the
// thread's accesses (Step, ReplayBatch, one SMT burst) enters once; nothing
// else touches the L1 while a thread runs, so once per entry is the same
// as once per access.
func (t *Thread) enter() {
	if t.domainL1 != nil {
		t.domainL1.SetActiveDomain(t.cfg.Owner)
	}
}

// Step executes one trace access and advances the thread's clock. It is a
// one-word replay: the access is compiled into the thread's scratch and run
// through the same loop as every compiled trace.
func (t *Thread) Step(a mem.Access) {
	t.stepAccess[0] = a
	t.enter()
	t.run(trace.CompileInto(&t.stepWord, t.stepAccess[:]), 0, 1, math.Inf(1))
}

// ReplayBatch executes a precompiled trace: one context entry, then every
// word through the replay loop (run), exactly as Step over each access in
// turn.
func (t *Thread) ReplayBatch(ct *trace.Compiled) {
	t.enter()
	t.run(ct, 0, ct.Len(), math.Inf(1))
}

// run is the replay loop, the one per-access body every entry point goes
// through. It executes words [i, j) of ct, stopping early once the
// thread's clock has passed until, and returns the index of the next word
// to run. Per access, the prologue charges the instructions, retires
// completed misses and waits out a load-to-use dependence; then a TryHit
// probe of the L1 resolves a hit here, and the miss path (miss) or the
// disable-secret bypass (bypass) run out of line. Escape words decode
// through At into the same body. The caller has entered the thread.
func (t *Thread) run(ct *trace.Compiled, i, j int, until float64) int {
	words := ct.Words()
	issueWidth := float64(t.machine.cfg.IssueWidth)
	hitLat := float64(t.machine.cfg.L1HitLat)
	bypassSecret := t.cfg.Mode == ModeDisableSecret
	for ; i < j && t.cycle <= until; i++ {
		w := words[i]
		instr, line, write, dependent, secret := trace.Instructions(w), trace.Line(w), trace.Write(w), trace.Dependent(w), trace.Secret(w)
		if trace.IsEscape(w) {
			a := ct.At(i)
			instr, line, write, dependent, secret = a.Instructions(), a.Line(), a.Kind == mem.Write, a.Dependent, a.Secret
		}

		t.res.Instructions += instr
		t.cycle += float64(instr) / issueWidth
		t.retire(t.cycle)
		if dependent {
			t.waitData()
		}

		if secret && bypassSecret {
			t.bypass(line, write)
			continue
		}
		if t.l1.TryHit(line, write) {
			t.res.Hits++
			if !write {
				t.dataReady = t.cycle + hitLat
			}
			if p := t.machine.Prefetcher; p != nil {
				t.enqueuePrefetches(p.OnHit(line))
			}
			t.serviceFills()
			continue
		}
		t.miss(line, write, secret)
	}
	return i
}

// bypass sends a security-critical access straight to the L2 with the
// cache disabled (ModeDisableSecret): no L1 lookup or fill. The request
// still needs a miss-queue entry (it is a demand fetch).
func (t *Thread) bypass(line mem.Line, write bool) {
	t.res.SecretBypass++
	slot := t.freeSlot()
	lat := t.machine.fetchBelow(line, write)
	t.issue(slot, mshrEntry{line: line, done: t.cycle + float64(lat)})
	if !write {
		t.dataReady = t.mshr[slot].done
	}
	t.serviceFills()
}

// miss is the demand-miss path after a failed TryHit.
func (t *Thread) miss(line mem.Line, write, secret bool) {
	// The L1 miss count Lookup would have added: TryHit changed nothing.
	t.l1.Stats().Misses++

	// A miss to a line already in flight merges with the outstanding
	// entry (no new request, excluded from MPKI).
	if p := t.pending(line); p >= 0 {
		t.res.Merged++
		if !write && t.mshr[p].done > t.dataReady {
			t.dataReady = t.mshr[p].done
		}
		t.serviceFills()
		return
	}

	t.res.Misses++
	if t.cfg.Mode == ModeInforming && secret {
		// Informing load: the miss traps to the user-level handler,
		// which reloads the whole security-critical data set before
		// execution resumes. The trap overhead plus the reload misses
		// are fully exposed (the handler runs in program order).
		t.cycle += informingTrapCycles
		for _, reg := range t.cfg.SecretRegions {
			for _, l := range reg.Lines() {
				if t.l1.Probe(l) {
					continue
				}
				lat := t.machine.fetchBelow(l, false)
				// Handler loads overlap pairwise at best.
				t.cycle += float64(lat) / 2
				t.machine.fillL1(l, cache.FillOpts{Owner: t.cfg.Owner})
			}
		}
		t.res.InformingTraps++
		// The faulting access now hits the freshly reloaded line.
		t.l1.Lookup(line, write)
		t.serviceFills()
		return
	}
	reqs := t.engine.OnMiss(line)
	for k := 0; k < reqs.Len(); k++ {
		r := reqs.At(k)
		switch r.Type {
		case core.Normal, core.NoFill:
			slot := t.freeSlot()
			lat := t.machine.fetchBelow(line, write)
			t.issue(slot, mshrEntry{
				line:   line,
				done:   t.cycle + float64(lat),
				fillL1: r.Type == core.Normal,
				dirty:  write,
			})
			if !write {
				t.dataReady = t.mshr[slot].done
			}
		case core.RandomFill:
			t.enqueueFill(r)
		}
	}
	if p := t.machine.Prefetcher; p != nil {
		t.enqueuePrefetches(p.OnMiss(line))
	}
	t.serviceFills()
}

// enqueuePrefetches queues the prefetcher's requested lines as background
// fills.
func (t *Thread) enqueuePrefetches(lines []mem.Line) {
	for _, pl := range lines {
		t.enqueueFill(core.Request{Type: prefetchRequest, Line: pl, Offset: 1})
	}
}

// RunCompiled executes an entire precompiled trace and returns the thread's
// result.
func (t *Thread) RunCompiled(ct *trace.Compiled) Result {
	t.ReplayBatch(ct)
	t.Drain()
	return t.Result()
}

// Drain waits for all outstanding requests to complete and applies their
// fills, advancing the clock to the last completion.
func (t *Thread) Drain() {
	t.cycle = t.lastDone()
	t.retire(t.cycle)
	// Issue any still-queued background fills and let them land too.
	t.serviceFills()
	t.cycle = t.lastDone()
	t.retire(t.cycle)
}

// lastDone is the latest completion time among the outstanding miss-queue
// entries, or the current cycle if none completes later.
func (t *Thread) lastDone() float64 {
	last := t.cycle
	for m := t.busy; m != 0; m &= m - 1 {
		if d := t.mshr[bits.TrailingZeros64(m)].done; d > last {
			last = d
		}
	}
	return last
}
