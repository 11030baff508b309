package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"randfill/internal/aes"
	"randfill/internal/attacks"
	"randfill/internal/cache"
	"randfill/internal/checkpoint"
	"randfill/internal/core"
	"randfill/internal/experiments"
	"randfill/internal/hierarchy"
	"randfill/internal/infotheory"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/securecache"
	"randfill/internal/sim"
	"randfill/internal/trace"
	"randfill/internal/workloads"
)

// driveUnit is one representative work unit of a workload, re-driven stage
// by stage through the layers' public functions. Every workload runs every
// stage, so every per-layer metric is measured on every workload: the
// stages on the workload's own path take the unit's real inputs and sizes,
// the rest run on small inputs of the same kind.
type driveUnit struct {
	name string
	seed uint64
	// cbcBytes > 0 traces AES-CBC over that many bytes (encrypt, plus
	// decrypt when encDec); otherwise blocks single-block encryptions are
	// traced, each its own replay batch, as the collision loop does.
	cbcBytes int
	encDec   bool
	blocks   int
	// simCfg is the machine every sim stage starts from. The replay
	// stage runs one row per l1 kind, each with the victim's random fill
	// window; the randfill design and the engine drives use window too.
	simCfg sim.Config
	window rng.Window
	l1     []sim.CacheKind
	// program is the co-running program and its length.
	program    workloads.Generator
	programLen int
	// smt lists the SMT co-run cases: the main thread runs program, the
	// background thread loops the AES stream.
	smt []smtCase
	// belowSim picks the stream the bare-L1/engine/hierarchy stages
	// replay: "aes" or "program".
	belowSim string
	// simFrom names the stage whose sim.Result gives the sim.* counters:
	// "replay", "smt" or "designs".
	simFrom string
	// Attack budgets.
	mcTrials, collectSamples, reuseTrials, occTrials int
	// ckptUnits frames of ckptBytes each are put to and read back from a
	// fresh checkpoint store.
	ckptUnits, ckptBytes int
}

type smtCase struct {
	name string
	kind sim.CacheKind
	bg   sim.ThreadConfig
}

// attackerConfig is Table III's machine: Table IV with a 2-entry miss queue.
func attackerConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.MissQueue = 2
	cfg.Seed = seed
	return cfg
}

func figure8Cases() []smtCase {
	w := rng.Symmetric(32)
	secret := aes.DefaultLayout().AllTableRegions()
	return []smtCase{
		{"baseline", sim.KindSA, sim.ThreadConfig{Owner: 1}},
		{"plcache+preload", sim.KindPLcache, sim.ThreadConfig{Mode: sim.ModePreload, SecretRegions: secret, Owner: 1}},
		{"randomfill+sa", sim.KindSA, sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w, Owner: 1}},
		{"newcache", sim.KindNewcache, sim.ThreadConfig{Owner: 1}},
		{"randomfill+newcache", sim.KindNewcache, sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w, Owner: 1}},
	}
}

// collisionUnit is two Table III cells at window 8 — RandomFill over the
// 4-way SA cache and over Newcache — as the measurement loop runs them:
// block traces compiled and replayed one batch per encryption.
func collisionUnit(sc experiments.Scale) driveUnit {
	return driveUnit{
		name:    "Table3 cells RandomFill+4-way SA and RandomFill+Newcache, window 8",
		seed:    sc.Seed,
		blocks:  1024,
		simCfg:  attackerConfig(sc.Seed),
		window:  rng.Symmetric(8),
		l1:      []sim.CacheKind{sim.KindSA, sim.KindNewcache},
		program: mustProgram("sjeng"), programLen: 10_000,
		smt:      figure8Cases()[:1],
		belowSim: "aes", simFrom: "replay",
		mcTrials: sc.MonteCarloTrials, collectSamples: 512,
		reuseTrials: 200, occTrials: 20,
		ckptUnits: 12, ckptBytes: 64,
	}
}

// smtUnit is one Figure 8 work item at 32 KB 4-way: one streaming program
// co-run next to AES enc+dec under all five cache configurations.
func smtUnit(sc experiments.Scale) driveUnit {
	cfg := sim.DefaultConfig()
	cfg.Seed = sc.Seed
	return driveUnit{
		name:     "Figure8 libquantum at 32KB 4-way, five configurations",
		seed:     sc.Seed,
		cbcBytes: sc.CBCBytes, encDec: true,
		simCfg:  cfg,
		window:  rng.Symmetric(32),
		l1:      []sim.CacheKind{sim.KindSA},
		program: mustProgram("libquantum"), programLen: sc.SpecAccesses,
		smt:      figure8Cases(),
		belowSim: "program", simFrom: "smt",
		mcTrials: 1000, collectSamples: 128,
		reuseTrials: 200, occTrials: 20,
		ckptUnits: 12, ckptBytes: 64,
	}
}

// designUnit is the design matrix's per-design cell: AES-CBC through every
// secure design as the simulator L1, then both attack probers per design,
// then the matrix's 49 unit frames through a checkpoint store.
func designUnit(sc experiments.Scale) driveUnit {
	cfg := sim.DefaultConfig()
	cfg.Seed = sc.Seed
	return driveUnit{
		name:     "OccupancyMatrix cell for every design, AES-CBC and both probers",
		seed:     sc.Seed,
		cbcBytes: sc.CBCBytes,
		simCfg:   cfg,
		window:   rng.Symmetric(32),
		l1:       []sim.CacheKind{sim.KindSA},
		program:  mustProgram("sjeng"), programLen: 10_000,
		smt:      figure8Cases()[:1],
		belowSim: "aes", simFrom: "designs",
		mcTrials: 1000, collectSamples: 128,
		reuseTrials: sc.MonteCarloTrials / 10, occTrials: sc.MonteCarloTrials / 100,
		ckptUnits: len(securecache.All()) * (1 + len(cache.PolicyNames())), ckptBytes: 48,
	}
}

func mustProgram(name string) workloads.Generator {
	g, ok := workloads.ByName(name)
	if !ok {
		panic("perfbench: no workload generator " + name)
	}
	return g
}

// driveResult is one drive's per-layer timings and simulated counters.
// Timings vary run to run; counters must repeat exactly.
type driveResult struct {
	timings  map[string]float64
	counters map[string]float64
}

// counterText renders the counters in a fixed order with every digit, the
// form whose digest is checked.
func (d driveResult) counterText() []byte {
	names := make([]string, 0, len(d.counters))
	for n := range d.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%s\n", n, strconv.FormatFloat(d.counters[n], 'g', -1, 64))
	}
	return b.Bytes()
}

// stopwatch sums the host time of repeated calls.
type stopwatch struct{ ns int64 }

func (s *stopwatch) time(f func()) {
	t0 := now()
	f()
	s.ns += now().Sub(t0).Nanoseconds()
}

func perUnit(ns int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// drive runs u's stages in order, each inside a span under parent.
func drive(u driveUnit, rec *spans, parent int, tmpRoot string) (driveResult, error) {
	d := driveResult{timings: map[string]float64{}, counters: map[string]float64{}}
	// stage runs f in a span; after the first failure it skips the rest.
	var err error
	stage := func(name string, f func() error) {
		if err == nil {
			err = rec.within(name, parent, func(int) error { return f() })
		}
	}

	// aes: the unit's crypto access stream.
	var batches []mem.Trace
	var blocks int
	stage("aes", func() error {
		var err error
		batches, blocks, err = u.aesStage(&d)
		return err
	})
	var stream mem.Trace
	for _, b := range batches {
		stream = append(stream, b...)
	}

	// trace: compile every batch.
	compiled := make([]trace.Compiled, len(batches))
	stage("trace", func() error {
		var sw stopwatch
		for i, b := range batches {
			sw.time(func() { trace.CompileInto(&compiled[i], b) })
		}
		d.timings["trace.compile_ns_per_access"] = perUnit(sw.ns, len(stream))
		return nil
	})

	// sim, batch core: replay the batches on each L1 row.
	stage("sim.replay", func() error {
		var sw stopwatch
		n := 0
		for k, kind := range u.l1 {
			cfg := u.simCfg
			cfg.L1Kind = kind
			m := sim.New(cfg)
			th := m.NewThread(sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: u.window})
			for i := range compiled {
				sw.time(func() {
					th.ReplayBatch(&compiled[i])
					th.Drain()
				})
			}
			n += len(stream)
			if k == 0 && u.simFrom == "replay" {
				simCounters(&d, th.Result(), m)
			}
		}
		d.timings["sim.batch_ns_per_access"] = perUnit(sw.ns, n)
		return nil
	})

	// securecache: the AES stream with every design as the L1.
	stage("securecache", func() error {
		for _, des := range securecache.All() {
			cfg := u.simCfg
			tc := sim.ThreadConfig{}
			if des.Name == "randfill" {
				cfg.L1Kind = sim.KindSA
				tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: u.window}
			} else {
				cfg.L1Kind = sim.CacheKind(des.Name)
			}
			m := sim.New(cfg)
			var sw stopwatch
			var res sim.Result
			sw.time(func() { res = m.RunTrace(tc, stream) })
			d.timings["securecache."+des.Name+".ns_per_access"] = perUnit(sw.ns, len(stream))
			d.counters["securecache."+des.Name+".misses"] = float64(res.Misses)
			if des.Name == "randfill" && u.simFrom == "designs" {
				simCounters(&d, res, m)
			}
		}
		return nil
	})

	// workloads: generate the co-running program.
	var prog mem.Trace
	stage("workloads", func() error {
		var sw stopwatch
		sw.time(func() { prog = u.program.Gen(u.programLen, u.seed) })
		d.timings["workloads.gen_ns_per_access"] = perUnit(sw.ns, len(prog))
		return nil
	})

	// sim, SMT: the program co-runs with the AES stream.
	stage("sim.smt", func() error {
		var sw stopwatch
		for k, c := range u.smt {
			cfg := u.simCfg
			cfg.L1Kind = c.kind
			m := sim.New(cfg)
			var res sim.Result
			sw.time(func() { res = m.RunSMTSteady(sim.ThreadConfig{Owner: 0}, prog, c.bg, stream) })
			d.counters["sim.smt."+c.name+".ipc"] = res.IPC()
			if k == 0 && u.simFrom == "smt" {
				simCounters(&d, res, m)
			}
		}
		// RunSMTSteady runs the main trace twice (warm-up and measured).
		d.timings["sim.smt_ns_per_access"] = perUnit(sw.ns, 2*len(prog)*len(u.smt))
		return nil
	})

	// Below sim: the chosen stream through a bare L1, the fill engine on
	// its misses, and a two-level hierarchy.
	below := stream
	if u.belowSim == "program" {
		below = prog
	}
	stage("cache+core+hierarchy", func() error {
		u.belowSimStage(&d, below)
		return nil
	})

	stage("infotheory", func() error { return u.infotheoryStage(&d) })
	stage("attacks", func() error {
		u.attacksStage(&d)
		return nil
	})
	stage("checkpoint", func() error { return u.checkpointStage(&d, tmpRoot) })
	d.counters["aes.blocks"] = float64(blocks)
	return d, err
}

// simCounters records the simulated counters of one sim run.
func simCounters(d *driveResult, r sim.Result, m *sim.Machine) {
	d.counters["sim.accesses"] = float64(r.Hits + r.Misses + r.Merged + r.SecretBypass)
	d.counters["sim.instructions"] = float64(r.Instructions)
	d.counters["sim.ipc"] = r.IPC()
	d.counters["sim.mpki"] = r.MPKI()
	d.counters["sim.stall_frac"] = 0
	if r.Cycles > 0 {
		d.counters["sim.stall_frac"] = r.StallCycles / r.Cycles
	}
	d.counters["sim.random_fills"] = float64(r.RandomFills)
	d.counters["sim.l2_accesses"] = float64(m.L2Accesses())
}

// aesStage traces the unit's encryptions and returns them as replay
// batches.
func (u driveUnit) aesStage(d *driveResult) ([]mem.Trace, int, error) {
	src := rng.New(u.seed ^ 0xae5)
	key := make([]byte, 16)
	src.Bytes(key)
	c, err := aes.New(key)
	if err != nil {
		return nil, 0, err
	}
	tr := &aes.Tracer{Cipher: c, Layout: aes.DefaultLayout()}
	var sw stopwatch
	var batches []mem.Trace
	blocks := u.blocks
	if u.cbcBytes > 0 {
		iv := make([]byte, 16)
		pt := make([]byte, u.cbcBytes)
		src.Bytes(iv)
		src.Bytes(pt)
		var ct []byte
		var enc mem.Trace
		sw.time(func() { ct, enc, err = tr.EncryptCBC(pt, iv) })
		if err != nil {
			return nil, 0, err
		}
		batches = append(batches, enc)
		blocks = u.cbcBytes / aes.BlockSize
		if u.encDec {
			var dec mem.Trace
			sw.time(func() { _, dec, err = tr.DecryptCBC(ct, iv) })
			if err != nil {
				return nil, 0, err
			}
			batches = append(batches, dec)
			blocks *= 2
		}
	} else {
		var pt [aes.BlockSize]byte
		var buf mem.Trace
		for i := 0; i < u.blocks; i++ {
			src.Bytes(pt[:])
			sw.time(func() { _, buf = tr.EncryptBlockInto(buf[:0], pt[:], 0) })
			batches = append(batches, append(mem.Trace(nil), buf...))
		}
	}
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	d.timings["aes.ns_per_block"] = perUnit(sw.ns, blocks)
	d.counters["aes.accesses_per_block"] = float64(n) / float64(blocks)
	return batches, blocks, nil
}

// belowSimStage replays s into a bare 32 KB 4-way L1 (Lookup, Fill on a
// miss), then runs the random fill engine's OnMiss over those misses against
// the warmed L1, then replays s through a two-level hierarchy whose L1 runs
// random fill.
func (u driveUnit) belowSimStage(d *driveResult, s mem.Trace) {
	l1 := func() *cache.SetAssoc {
		return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
	}
	c := l1()
	misses := make([]mem.Line, 0, len(s))
	var sw stopwatch
	sw.time(func() {
		for _, a := range s {
			if !c.Lookup(a.Line(), a.Kind == mem.Write) {
				c.Fill(a.Line(), cache.FillOpts{Dirty: a.Kind == mem.Write})
				misses = append(misses, a.Line())
			}
		}
	})
	d.timings["cache.probe_ns_per_access"] = perUnit(sw.ns, len(s))
	d.counters["cache.l1_hit_rate"] = 1 - float64(len(misses))/float64(len(s))

	eng := core.NewEngine(c, rng.New(u.seed^0xe4e))
	eng.SetRR(u.window.A, u.window.B)
	sw = stopwatch{}
	sw.time(func() {
		for _, l := range misses {
			eng.OnMiss(l)
		}
	})
	st := eng.Stats()
	d.timings["core.onmiss_ns_per_miss"] = perUnit(sw.ns, len(misses))
	d.counters["core.random_issued"] = float64(st.RandomIssued)
	d.counters["core.random_dropped"] = float64(st.RandomDropped)
	d.counters["core.random_clamped"] = float64(st.RandomClamped)
	if tried := st.RandomIssued + st.RandomDropped + st.RandomClamped; tried > 0 {
		d.counters["core.fill_useful_ratio"] = float64(st.RandomIssued) / float64(tried)
	}

	top := l1()
	topEng := core.NewEngine(top, rng.New(u.seed^0x41e))
	topEng.SetRR(u.window.A, u.window.B)
	l2 := hierarchy.NewLevel(cache.NewSetAssoc(cache.Geometry{SizeBytes: 2 * 1024 * 1024, Ways: 8}, cache.LRU{}), 20)
	h := hierarchy.New(160, hierarchy.NewLevel(top, 1).WithEngine(topEng), l2)
	sw = stopwatch{}
	sw.time(func() {
		for _, a := range s {
			h.Access(a.Line(), a.Kind == mem.Write)
		}
	})
	ls := l2.Stats()
	d.timings["hierarchy.access_ns_per_access"] = perUnit(sw.ns, len(s))
	d.counters["hierarchy.l2_accesses"] = float64(ls.Accesses)
	d.counters["hierarchy.l2_hit_rate"] = 0
	if ls.Accesses > 0 {
		d.counters["hierarchy.l2_hit_rate"] = float64(ls.Hits) / float64(ls.Accesses)
	}
	d.counters["hierarchy.mem_accesses"] = float64(h.MemAccesses())
	d.counters["hierarchy.writebacks"] = float64(ls.WritebacksIn)
}

// t4Region is the AES final-round table Table III attacks.
func t4Region() mem.Region { return aes.DefaultLayout().TableRegion(4) }

func (u driveUnit) infotheoryStage(d *driveResult) error {
	if got := t4Region(); got != (mem.Region{Base: 0x10000 + 4*1024, Size: 1024}) {
		return fmt.Errorf("AES table 4 moved to %v", got)
	}
	var sw stopwatch
	var r infotheory.P1P2Result
	sw.time(func() {
		r = infotheory.MonteCarloP1P2(infotheory.P1P2Config{
			NewCache: func(*rng.Source) cache.Cache {
				return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
			},
			Window: rng.Symmetric(8),
			Trials: u.mcTrials,
			Region: t4Region(),
			Seed:   u.seed,
		})
	})
	d.timings["infotheory.mc_ns_per_trial"] = perUnit(sw.ns, u.mcTrials)
	d.counters["infotheory.p1_hits"] = float64(r.P1Hits)
	d.counters["infotheory.p2_hits"] = float64(r.P2Hits)
	return nil
}

// attacksStage runs the collision sampler on the SA+window cell, then both
// design-generic probers against every design.
func (u driveUnit) attacksStage(d *driveResult) {
	a := attacks.NewCollision(attacks.CollisionConfig{
		Sim:    attackerConfig(u.seed),
		Victim: sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Symmetric(8)},
		Seed:   u.seed,
	})
	a.Collect(0) // the attack's unrecorded warm-up encryptions
	var sw stopwatch
	sw.time(func() { a.Collect(u.collectSamples) })
	d.timings["attacks.collect_ns_per_sample"] = perUnit(sw.ns, u.collectSamples)
	d.counters["attacks.collect_sigma_t"] = a.Stats().SigmaT()

	var occ, reuse stopwatch
	designs := securecache.All()
	for i, des := range designs {
		mk := func(geom cache.Geometry) func(*rng.Source) securecache.SecureCache {
			return func(src *rng.Source) securecache.SecureCache {
				return des.New(securecache.Config{Geom: geom}, src)
			}
		}
		seed := rng.New(u.seed ^ 0x0cc9).SplitSeed(uint64(i + 1))
		p := attacks.NewOccupancyProber(attacks.OccupancyConfig{
			NewCache:    mk(cache.Geometry{SizeBytes: 8 * 1024, Ways: 4}),
			Lines:       96,
			VictimSizes: []int{16, 32, 64, 96},
			Trials:      u.occTrials,
			Seed:        seed,
		})
		var or attacks.OccupancyResult
		occ.time(func() { or = p.Run() })
		var rr attacks.FlushReloadResult
		reuse.time(func() {
			rr = attacks.Reuse(attacks.ReuseConfig{
				NewCache: mk(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}),
				Region:   t4Region(),
				Pad:      16,
				Trials:   u.reuseTrials,
				Seed:     seed,
			})
		})
		d.counters["attacks.occupancy."+des.Name+".mi"] = or.MutualInfo
		d.counters["attacks.reuse."+des.Name+".mi"] = rr.MutualInfo
	}
	d.timings["attacks.occupancy_run_ms"] = float64(occ.ns) / 1e6 / float64(len(designs))
	d.timings["attacks.reuse_run_ms"] = float64(reuse.ns) / 1e6 / float64(len(designs))
}

// checkpointStage puts the unit's frames to a fresh store, then reads every
// one back as a resume would.
func (u driveUnit) checkpointStage(d *driveResult, tmpRoot string) error {
	dir, err := os.MkdirTemp(tmpRoot, "store-")
	if err != nil {
		return fmt.Errorf("checkpoint drive: %w", err)
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch under the run's own temp root, removed again at exit
	st, err := checkpoint.Open(dir)
	if err != nil {
		return err
	}
	src := rng.New(u.seed ^ 0xc4c)
	metas := make([]checkpoint.Meta, u.ckptUnits)
	payloads := make([][]byte, u.ckptUnits)
	var put, get stopwatch
	for i := range metas {
		metas[i] = checkpoint.Meta{Experiment: "perfbench/" + strings.Fields(u.name)[0], Shard: i, Seed: u.seed, ConfigHash: u.seed, StreamVersion: rng.StreamVersion}
		payloads[i] = make([]byte, u.ckptBytes)
		src.Bytes(payloads[i])
		put.time(func() { err = st.Put(metas[i], payloads[i]) })
		if err != nil {
			return err
		}
	}
	for i, m := range metas {
		var got []byte
		var ok bool
		get.time(func() { got, ok, err = st.Get(m) })
		if err != nil {
			return err
		}
		if !ok || !bytes.Equal(got, payloads[i]) {
			return fmt.Errorf("checkpoint drive: frame %d did not read back", i)
		}
	}
	d.timings["checkpoint.put_ms"] = float64(put.ns) / 1e6 / float64(u.ckptUnits)
	d.timings["checkpoint.resume_s"] = float64(get.ns) / 1e9
	d.counters["checkpoint.drive_frames"] = float64(u.ckptUnits)
	return nil
}
