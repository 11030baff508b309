// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — a closed loop of full experiment passes through the public
// experiments registry — for a fixed number of host seconds, checks every
// pass's rendered tables, and prints the host-side cost of a pass.
//
// With -trace 1 it instead makes the traced run: passes alternate with and
// without a CPU profile, pprof labels and in-memory spans, and then one
// representative work unit is re-driven stage by stage through the layer
// packages. That run reports per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"wall_s": {"value": 2.31, "unit": "s"}, ...}}
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload collision-batch -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// procStart is the earliest host-clock reading the program can take; the
// first set-up is timed from here.
var procStart = now()

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "collision-batch", "workload to run: collision-batch, smt-corun or design-matrix")
	seed := flag.Uint64("seed", 1, "input seed; it becomes Scale.Seed")
	seconds := flag.Float64("seconds", 20, "host seconds of passes to measure")
	traced := flag.Int("trace", 0, "0: timed passes, end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for spans, profiles and temporary checkpoint stores")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seed == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seed must be positive, -seconds positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmpRoot, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer func() {
		if err := os.RemoveAll(tmpRoot); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}()

	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, outDir: *outDir, tmpRoot: tmpRoot}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d workers=%d GOMAXPROCS=%d go=%s\n",
		w.name, cfg.seed, cfg.seconds, *traced, workers, runtime.GOMAXPROCS(0), runtime.Version())
	var res result
	if *traced == 1 {
		res, err = tracedRun(context.Background(), cfg)
	} else {
		res, err = timedRun(context.Background(), cfg)
	}
	if err != nil {
		for _, n := range res.notes {
			fmt.Fprintln(os.Stderr, n)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return res.print()
}

type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	outDir  string
	tmpRoot string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's verdict and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are human-readable lines printed before the JSON line.
	notes []string
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the notes, one line per metric, and the JSON verdict last.
func (r result) print() int {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// timedRun alternates set-up and an untraced pass for the configured
// seconds and reports the median set-up and the median pass. Spreading the
// set-ups over the run, rather than doing them all first, keeps one burst
// of host noise from landing on all of them.
func timedRun(ctx context.Context, cfg runConfig) (result, error) {
	var res result
	chk, err := newChecker(cfg.w.name, "tables", cfg.seed)
	if err != nil {
		return res, err
	}
	sc := cfg.w.scale(cfg.seed)
	var hw heapWatch
	var setups, wall, cpu, alloc, peak []float64
	start := now()
	for res.Attempted == 0 || now().Sub(start).Seconds() < cfg.seconds {
		t0 := now()
		if len(setups) == 0 {
			t0 = procStart
		}
		if err := warmUp(ctx, cfg); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, now().Sub(t0).Seconds())

		res.Attempted++
		st, err := checkedPass(ctx, cfg, sc, &hw, chk, plainHooks, nil)
		if err != nil {
			res.Failed++
			res.note("pass %d failed: %v", res.Attempted, err)
			continue
		}
		wall = append(wall, st.wallS)
		cpu = append(cpu, st.cpuS)
		alloc = append(alloc, st.allocMB)
		peak = append(peak, st.peakHeapMB)
	}
	res.Correct = res.Failed == 0
	res.note("passes: %d attempted, %d failed, fail_frac %.4g; metrics are medians over the %d good passes and %d set-ups",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), len(wall), len(setups))
	for _, m := range []struct {
		name, unit string
		xs         []float64
	}{
		{"wall_s", "s", wall}, {"cpu_s", "s", cpu}, {"alloc_mb", "MB", alloc},
		{"peak_heap_mb", "MB", peak}, {"setup_s", "s", setups},
	} {
		res.set(m.name, m.unit, median(m.xs))
		lo, hi := minMax(m.xs)
		res.note("  %-12s median %.4f  min %.4f  max %.4f  n=%d", m.name, median(m.xs), lo, hi, len(m.xs))
	}
	res.note("output: %s", chk.describe())
	return res, nil
}

// warmUp is one set-up: the workload's experiments at a sixteenth of the
// pass budgets, run once so every lazily built table and code path is
// touched before the first timed pass. It writes no checkpoints: at this
// size a store's fsyncs would outweigh the compute, and set-up time would
// follow the host's disk rather than the program.
func warmUp(ctx context.Context, cfg runConfig) error {
	w := cfg.w
	w.checkpointed = false
	_, err := runPass(ctx, w, warmScale(w.scale(cfg.seed)), cfg.tmpRoot, plainHooks)
	return err
}

// spanPath is where the traced run leaves one of its artifacts.
func spanPath(cfg runConfig, suffix string) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.%s", cfg.w.name, cfg.seed, suffix))
}
