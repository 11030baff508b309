package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
)

// TestBenchmarkJSON pins BENCHMARK.json's workloads and per-layer metrics
// to the ones this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		PerLayer  []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, allWorkloads[i].name)
		}
	}
	spec, err := loadMetricSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(spec.PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metrics.json %d", len(b.PerLayer), len(spec.PerLayer))
	}
	for i, m := range b.PerLayer {
		s := spec.PerLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, metrics.json %s/%s/%s", i, m, s.Name, s.Unit, s.Better)
		}
		if s.Moves == "" {
			t.Errorf("%s: metrics.json states no prediction", s.Name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, want string }{
		{"randfill/internal/sim.(*Thread).Step", "sim"},
		{"randfill/internal/newcache.(*Newcache).Lookup", "securecache"},
		{"randfill/internal/experiments.runShards[go.shape.struct { randfill/internal/attacks.x }]", "experiments"},
		{"randfill/internal/mem.LineOf", ""},
		{"runtime.mallocgc", ""},
		{"randfill/internal/securecache/conformance.Run", "securecache"},
	} {
		if got := layerOf(c.fn); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

//go:noinline
func spin(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

var sink uint64

// TestParseProfile decodes a real CPU profile of this process.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for i := 0; i < 40; i++ {
		sink += spin(5_000_000)
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples")
	}
	found := false
	for _, s := range p.samples {
		for _, loc := range s.locs {
			for _, f := range p.locFuncs[loc] {
				found = found || p.funcName[f] == "randfill/perfbench.spin"
			}
		}
	}
	if !found {
		t.Error("no sample attributes time to spin")
	}
	var c cpuByLayer
	if err := c.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c.total <= 0 || c.share("other") != 1 {
		t.Errorf("benchmark-only profile: total %d ns, other share %v; want all time in other", c.total, c.share("other"))
	}
}

func TestChecker(t *testing.T) {
	c, err := newChecker("collision-batch", "tables", 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.check([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.check([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.check([]byte("b")); err == nil {
		t.Error("a different output passed the check")
	}
	ref, err := newChecker("collision-batch", "tables", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.check([]byte("a")); err == nil {
		t.Error("output not matching the recorded digest passed the check")
	}
}
