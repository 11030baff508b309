package sim

import (
	"fmt"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/prefetch"
	"randfill/internal/rng"
	"randfill/internal/trace"
)

// This file pins whole-trace replay to per-access replay, byte for byte: for
// every fill mode and machine shape, ReplayBatch over a compiled trace must
// leave a machine in exactly the state a Step loop over the raw trace does —
// same fractional cycles, same counters at every layer, same RNG consumption
// (witnessed by the random-fill line choices feeding the L2/memory traffic
// counts). Both run the one replay loop, so this pins the entry points (one
// context entry per trace vs per access, one compile vs one per access); the
// recorded machine states in testdata/replay_state.golden pin the loop
// itself (DESIGN.md §12).

// replayPinTrace is recordedTrace plus secret accesses confined to a small
// region, so the secret-sensitive modes (disable-secret bypass, informing
// loads) take their special paths during the pin.
func replayPinTrace() (mem.Trace, mem.Region) {
	reg := mem.Region{Base: 1 << 20, Size: 8 * 64}
	src := rng.New(43)
	tr := make(mem.Trace, 4000)
	for i := range tr {
		a := mem.Access{
			Addr:   mem.AddrOf(mem.Line(src.Intn(512))),
			NonMem: uint32(src.Intn(4)),
		}
		if src.Bool(0.1) {
			a.Addr = reg.Base + mem.Addr(src.Intn(int(reg.Size)))
			a.Secret = true
		}
		if src.Bool(0.3) {
			a.Kind = mem.Write
		}
		if src.Bool(0.15) {
			a.Dependent = true
		}
		tr[i] = a
	}
	return tr, reg
}

// machineState summarizes every observable layer of a machine after a replay:
// the thread result, the L1 cache counters, and the per-level and memory
// traffic below it.
func machineState(m *Machine, res Result) string {
	s := fmt.Sprintf("%+v l1=%+v", res, *m.L1().Stats())
	for k := 1; k < m.Hierarchy().Depth(); k++ {
		s += fmt.Sprintf(" lvl%d=%+v", k, *m.Hierarchy().Level(k).Stats())
	}
	return s + fmt.Sprintf(" mem=%d memwb=%d", m.MemAccesses(), m.Hierarchy().MemWritebacks())
}

// replayPinCase is one machine shape of the replay identity pins.
type replayPinCase struct {
	name     string
	cfg      Config
	tc       ThreadConfig
	prefetch bool
}

// replayPinCases are the machine shapes every replay pin runs: each fill
// mode, miss-queue and hierarchy shape, the domain-aware and preloading L1
// kinds, an attached prefetcher, and every stateful replacement policy.
func replayPinCases(reg mem.Region) []replayPinCase {
	tiny := DefaultConfig()
	tiny.L1 = cache.Geometry{SizeBytes: 1024, Ways: 2}
	tiny.L2 = cache.Geometry{SizeBytes: 16 * 1024, Ways: 4}
	tiny.Seed = 7
	oneMSHR := tiny
	oneMSHR.MissQueue = 1
	twoMSHR := tiny
	twoMSHR.MissQueue = 2
	wideMSHR := tiny
	wideMSHR.MissQueue = MaxMissQueue
	l2rf := tiny
	l2rf.L2Window = rng.Window{A: 4, B: 3}
	three := tiny
	three.Levels = []LevelConfig{
		{Geom: cache.Geometry{SizeBytes: 16 * 1024, Ways: 4}, HitLat: 12, Window: rng.Window{A: 8, B: 7}},
		{Geom: cache.Geometry{SizeBytes: 64 * 1024, Ways: 8}, HitLat: 40},
	}
	plKind := tiny
	plKind.L1Kind = KindPLcache
	rpKind := tiny
	rpKind.L1Kind = KindRPcache
	withPolicy := func(name string) Config {
		c := tiny
		c.L1Policy = name
		return c
	}

	rf := ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 8, B: 7}}

	return []replayPinCase{
		{name: "demand", cfg: tiny, tc: ThreadConfig{}},
		{name: "randomfill", cfg: tiny, tc: rf},
		{name: "one-mshr", cfg: oneMSHR, tc: rf},
		// The collision attacker's two-entry queue, and the widest queue
		// the occupancy bitmask holds, with prefetches riding it too.
		{name: "two-mshr", cfg: twoMSHR, tc: rf},
		{name: "mshr-64", cfg: wideMSHR, tc: rf},
		{name: "mshr-64-prefetch", cfg: wideMSHR, tc: ThreadConfig{}, prefetch: true},
		{name: "l2window", cfg: l2rf, tc: rf},
		{name: "three-level", cfg: three, tc: rf},
		{name: "disable-secret", cfg: tiny, tc: ThreadConfig{Mode: ModeDisableSecret}},
		{name: "informing", cfg: tiny, tc: ThreadConfig{Mode: ModeInforming, SecretRegions: []mem.Region{reg}}},
		// A non-SetAssoc L1, a domain-aware L1, and an attached
		// prefetcher.
		{name: "plcache-fallback", cfg: plKind, tc: ThreadConfig{Mode: ModePreload, SecretRegions: []mem.Region{reg}}},
		{name: "rpcache-fallback", cfg: rpKind, tc: rf},
		{name: "prefetch-fallback", cfg: tiny, tc: ThreadConfig{}, prefetch: true},
		// Per-policy state pins: every stateful policy (tree bits, RRIP
		// counters, BRRIP draws) must land in exactly the recorded per-set
		// state — under random fill too, so the policy sees out-of-window
		// fills.
		{name: "policy-plru", cfg: withPolicy("plru"), tc: rf},
		{name: "policy-srrip", cfg: withPolicy("srrip"), tc: rf},
		{name: "policy-brrip", cfg: withPolicy("brrip"), tc: rf},
		{name: "policy-fifo", cfg: withPolicy("fifo"), tc: ThreadConfig{}},
		{name: "policy-random", cfg: withPolicy("random"), tc: ThreadConfig{}},
	}
}

func TestBatchReplayMatchesStep(t *testing.T) {
	tr, reg := replayPinTrace()
	for _, c := range replayPinCases(reg) {
		t.Run(c.name, func(t *testing.T) {
			got, want := replayStateBatch(c, trace.Compile(tr)), replayStateStep(c, tr)
			if got != want {
				t.Errorf("batched replay diverges from Step loop:\n batch  %s\n scalar %s", got, want)
			}
		})
	}
}

// TestBatchReplayEscapeRecords drives ReplayBatch over a trace whose records
// overflow the packed word layout (line number beyond 49 bits, non-memory
// count beyond 12 bits): escapes decode verbatim and still match the Step
// loop.
func TestBatchReplayEscapeRecords(t *testing.T) {
	tr := escapeTrace()
	c := escapeCase()
	got, want := replayStateBatch(c, trace.Compile(tr)), replayStateStep(c, tr)
	if got != want {
		t.Errorf("escape-record replay diverges:\n batch  %s\n scalar %s", got, want)
	}
}

// replayMachine builds case c's machine.
func replayMachine(c replayPinCase) *Machine {
	m := New(c.cfg)
	if c.prefetch {
		m.Prefetcher = prefetch.NewTagged()
	}
	return m
}

// replayStateStep is the machine state after a Step loop over tr.
func replayStateStep(c replayPinCase, tr mem.Trace) string {
	m := replayMachine(c)
	th := m.NewThread(c.tc)
	for i := range tr {
		th.Step(tr[i])
	}
	th.Drain()
	return machineState(m, th.Result())
}

// replayStateBatch is the machine state after ReplayBatch over ct.
func replayStateBatch(c replayPinCase, ct *trace.Compiled) string {
	m := replayMachine(c)
	th := m.NewThread(c.tc)
	th.ReplayBatch(ct)
	th.Drain()
	return machineState(m, th.Result())
}

// escapeTrace mixes packable records with ones that overflow the packed
// word layout (line number beyond 49 bits, non-memory count beyond 12 bits).
func escapeTrace() mem.Trace {
	src := rng.New(5)
	tr := make(mem.Trace, 200)
	for i := range tr {
		a := mem.Access{Addr: mem.AddrOf(mem.Line(src.Intn(64)))}
		switch src.Intn(4) {
		case 0:
			a.Addr = mem.Addr(src.Uint64() | 1<<60)
		case 1:
			a.NonMem = 1 << 20
		}
		if src.Bool(0.3) {
			a.Kind = mem.Write
		}
		tr[i] = a
	}
	return tr
}

func escapeCase() replayPinCase {
	cfg := DefaultConfig()
	cfg.L1 = cache.Geometry{SizeBytes: 1024, Ways: 2}
	cfg.Seed = 3
	return replayPinCase{name: "escape", cfg: cfg, tc: ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 8, B: 7}}}
}

// TestRunCompiledMatchesRun pins the mem.Trace convenience (Machine.RunTrace)
// to Thread.RunCompiled on the compiled trace.
func TestRunCompiledMatchesRun(t *testing.T) {
	tr, _ := replayPinTrace()
	cfg := DefaultConfig()
	cfg.Seed = 9
	tc := ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 8, B: 7}}

	a := New(cfg).RunTrace(tc, tr)
	b := New(cfg).NewThread(tc).RunCompiled(trace.Compile(tr))
	if ga, gb := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b); ga != gb {
		t.Errorf("RunCompiled diverges from RunTrace:\n compiled %s\n RunTrace %s", gb, ga)
	}
}

// TestRunSMTSteadyCompiledAllocs pins the SMT co-run loop to zero
// allocations: of RunSMTSteadyCompiled, only the two NewThread calls
// allocate; its passes over the compiled word streams, once the fill queues
// have grown to their working size, allocate nothing per access or per pass.
func TestRunSMTSteadyCompiledAllocs(t *testing.T) {
	tr, _ := replayPinTrace()
	mainCT, bgCT := trace.Compile(tr), trace.Compile(replayBgTrace())
	for _, kind := range []CacheKind{KindSA, KindNewcache} {
		cfg := tinyConfig()
		cfg.L1Kind = kind
		m := New(cfg)
		main := m.NewThread(ThreadConfig{Owner: 0})
		bg := m.NewThread(ThreadConfig{Owner: 1, Mode: ModeRandomFill, Window: rng.Window{A: 4, B: 3}})
		bi := m.smtPass(main, bg, mainCT, bgCT, 0)
		if n := testing.AllocsPerRun(5, func() { bi = m.smtPass(main, bg, mainCT, bgCT, bi) }); n != 0 {
			t.Errorf("%s: SMT pass allocates %.1f times, want 0", kind, n)
		}
	}
}
