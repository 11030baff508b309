package sim

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"randfill/internal/aes"
	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/prefetch"
	"randfill/internal/rng"
	"randfill/internal/trace"
	"randfill/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/replay_state.golden from the current code")

const replayGoldenPath = "testdata/replay_state.golden"

// TestReplayStateGolden pins the full machine state (machineState) of every
// replay shape to a recorded file: single-thread replay of every
// TestBatchReplayMatchesStep case and of the escape-record trace, SMT
// co-runs on all seven L1 kinds, Figure 8's five thread configurations on
// small traces, and the collision attack's flush-and-replay sample loop. The differential tests in this package compare two
// entry points that share one access body; this golden is what catches a
// change to that shared body. Regenerate with `go test ./internal/sim -run
// ReplayStateGolden -update` only for an intended change of output.
func TestReplayStateGolden(t *testing.T) {
	got := replayStates(t)
	if *updateGolden {
		var b strings.Builder
		for _, s := range got {
			fmt.Fprintf(&b, "%s\t%s\n", s.name, s.state)
		}
		if err := os.MkdirAll(filepath.Dir(replayGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(replayGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(replayGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var order []string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, state, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = state
		order = append(order, name)
	}
	seen := map[string]bool{}
	for _, s := range got {
		seen[s.name] = true
		w, ok := want[s.name]
		switch {
		case !ok:
			t.Errorf("%s: not in %s (rerun with -update)", s.name, replayGoldenPath)
		case s.state != w:
			t.Errorf("%s: machine state moved:\n got  %s\n want %s", s.name, s.state, w)
		}
	}
	for _, name := range order {
		if !seen[name] {
			t.Errorf("%s: recorded in %s but no longer produced", name, replayGoldenPath)
		}
	}
}

type namedState struct{ name, state string }

// replayStates runs every pinned shape and returns its machine state.
func replayStates(t *testing.T) []namedState {
	t.Helper()
	var out []namedState
	tr, reg := replayPinTrace()
	ct := trace.Compile(tr)
	for _, c := range replayPinCases(reg) {
		out = append(out, namedState{"single/" + c.name, replayStateBatch(c, ct)})
	}
	out = append(out, namedState{"single/escape", replayStateBatch(escapeCase(), trace.Compile(escapeTrace()))})

	// SMT co-runs: a random-fill background thread over a trace shorter
	// than the main one, so the background stream wraps within a pass.
	bgTrace := replayBgTrace()
	for _, kind := range []CacheKind{KindSA, KindNewcache, KindPLcache, KindRPcache, KindNoMo, KindScatter, KindMirage} {
		cfg := tinyConfig()
		cfg.L1Kind = kind
		cfg.Seed = 11
		bg := ThreadConfig{Owner: 1, Mode: ModeRandomFill, Window: rng.Window{A: 4, B: 3}}
		if kind == KindPLcache {
			bg = ThreadConfig{Owner: 1, Mode: ModePreload, SecretRegions: []mem.Region{reg}}
		}
		main := ThreadConfig{Owner: 0}
		m := New(cfg)
		res := m.RunSMTCompiled(main, trace.Compile(tr), bg, trace.Compile(bgTrace))
		once := machineState(m, res)
		m = New(cfg)
		res = m.RunSMTSteady(main, tr, bg, bgTrace)
		out = append(out, namedState{"smt/" + string(kind), once}, namedState{"smt-steady/" + string(kind), machineState(m, res)})
	}
	pf := tinyConfig()
	pf.Seed = 13
	m := New(pf)
	m.Prefetcher = prefetch.NewTagged()
	res := m.RunSMTSteady(ThreadConfig{}, tr, ThreadConfig{Owner: 1}, bgTrace)
	out = append(out, namedState{"smt-steady/sa-prefetch", machineState(m, res)})

	// Figure 8's five thread configurations at both of its geometries, on
	// a small AES enc+dec stream and two small benchmark traces.
	crypto := replayCryptoTrace(t)
	tables := aes.DefaultLayout().AllTableRegions()
	w := rng.Symmetric(32)
	configs := []struct {
		name string
		kind CacheKind
		tc   ThreadConfig
	}{
		{"baseline", KindSA, ThreadConfig{Owner: 1}},
		{"plcache-preload", KindPLcache, ThreadConfig{Mode: ModePreload, SecretRegions: tables, Owner: 1}},
		{"randomfill-sa", KindSA, ThreadConfig{Mode: ModeRandomFill, Window: w, Owner: 1}},
		{"newcache", KindNewcache, ThreadConfig{Owner: 1}},
		{"randomfill-newcache", KindNewcache, ThreadConfig{Mode: ModeRandomFill, Window: w, Owner: 1}},
	}
	for _, g := range []cache.Geometry{{SizeBytes: 16 * 1024, Ways: 1}, {SizeBytes: 32 * 1024, Ways: 4}} {
		for _, bn := range []string{"sjeng", "astar"} {
			bench, _ := workloads.ByName(bn)
			prog := bench.Gen(3000, 5)
			for _, c := range configs {
				cfg := DefaultConfig()
				cfg.L1 = g
				cfg.L1Kind = c.kind
				cfg.Seed = 5
				m := New(cfg)
				res := m.RunSMTSteady(ThreadConfig{Owner: 0}, prog, c.tc, crypto)
				out = append(out, namedState{fmt.Sprintf("figure8/%s/%s/%s", g, bn, c.name), machineState(m, res)})
			}
		}
	}
	return append(out, collisionSampleStates(t)...)
}

// collisionSampleStates pins the collision attack's measurement loop (see
// internal/attacks): the two-entry attacker machine replays one traced AES
// block per sample from a flushed L1, under the demand-fetch SA cache and
// under random fill over SA and Newcache at windows 8 and 32. Besides the
// final machine state it records an FNV-1a digest of every sample's
// elapsed cycles (the little-endian bytes of their float64 bits), the
// value the attack measures.
func collisionSampleStates(t *testing.T) []namedState {
	t.Helper()
	shapes := []struct {
		kind   CacheKind
		window int
	}{{KindSA, 0}, {KindSA, 8}, {KindSA, 32}, {KindNewcache, 8}, {KindNewcache, 32}}
	var out []namedState
	for _, s := range shapes {
		cfg := DefaultConfig()
		cfg.MissQueue = 2
		cfg.L1Kind = s.kind
		cfg.Seed = 17
		var tc ThreadConfig
		if s.window > 0 {
			tc = ThreadConfig{Mode: ModeRandomFill, Window: rng.Symmetric(s.window)}
		}
		src := rng.New(0xb10c)
		var key, pt [16]byte
		src.Bytes(key[:])
		cipher, err := aes.New(key[:])
		if err != nil {
			t.Fatal(err)
		}
		tracer := &aes.Tracer{Cipher: cipher, Layout: aes.DefaultLayout()}
		m := New(cfg)
		th := m.NewThread(tc)
		var ct trace.Compiled
		digest := uint64(14695981039346656037) // FNV offset basis
		for i := 0; i < 200; i++ {
			src.Bytes(pt[:])
			m.L1().Flush()
			start := th.Cycle()
			tracer.EncryptBlockCompiled(&ct, pt[:], 0)
			th.ReplayBatch(&ct)
			th.Drain()
			elapsed := math.Float64bits(th.Cycle() - start)
			for k := 0; k < 64; k += 8 {
				digest = (digest ^ elapsed>>k&0xff) * 1099511628211
			}
		}
		name := fmt.Sprintf("collision/%s/w%d", s.kind, s.window)
		out = append(out, namedState{name, fmt.Sprintf("%s samples=%016x", machineState(m, th.Result()), digest)})
	}
	return out
}

// replayBgTrace is a background stream for the SMT pins: reads and writes
// over a region disjoint from replayPinTrace's, with some dependences.
func replayBgTrace() mem.Trace {
	src := rng.New(29)
	tr := make(mem.Trace, 1500)
	for i := range tr {
		tr[i] = mem.Access{
			Addr:      mem.AddrOf(mem.Line(4096 + src.Intn(96))),
			NonMem:    uint32(src.Intn(3)),
			Dependent: src.Bool(0.1),
		}
		if src.Bool(0.2) {
			tr[i].Kind = mem.Write
		}
	}
	return tr
}

// replayCryptoTrace is Figure 8's crypto workload at a small size: AES-CBC
// encryption then decryption of 512 bytes over all ten tables.
func replayCryptoTrace(t *testing.T) mem.Trace {
	t.Helper()
	src := rng.New(0xdec)
	var key, iv [16]byte
	src.Bytes(key[:])
	src.Bytes(iv[:])
	pt := make([]byte, 512)
	src.Bytes(pt)
	cipher, err := aes.New(key[:])
	if err != nil {
		t.Fatal(err)
	}
	tracer := &aes.Tracer{Cipher: cipher, Layout: aes.DefaultLayout()}
	ct, enc, err := tracer.EncryptCBC(pt, iv[:])
	if err != nil {
		t.Fatal(err)
	}
	_, dec, err := tracer.DecryptCBC(ct, iv[:])
	if err != nil {
		t.Fatal(err)
	}
	return append(enc, dec...)
}
