package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"

	"randfill/internal/atomicio"
	"randfill/internal/checkpoint"
	"randfill/internal/experiments"
)

// driveReps is how many times the traced run re-drives the unit; timings
// are the median over them and counters must agree between them.
const driveReps = 3

// tracedRun alternates untraced and traced passes for the configured
// seconds, then re-drives the workload's representative unit, and reports
// the per-layer metrics. Spans are written to .bench_out when it ends.
func tracedRun(ctx context.Context, cfg runConfig) (result, error) {
	var res result
	chk, err := newChecker(cfg.w.name, "tables", cfg.seed)
	if err != nil {
		return res, err
	}
	counterChk, err := newChecker(cfg.w.name, "counters", cfg.seed)
	if err != nil {
		return res, err
	}
	rec := newSpans(fmt.Sprintf("%s-seed%d-pid%d", cfg.w.name, cfg.seed, os.Getpid()))
	root := rec.begin("workload "+cfg.w.name, 0)
	if err := rec.within("set-up", root, func(int) error { return warmUp(ctx, cfg) }); err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}

	sc := cfg.w.scale(cfg.seed)
	var hw heapWatch
	var plain, traced []passStats
	var prof cpuByLayer
	var ckptPuts, ckptBytes float64
	fail := func(what string, err error) {
		res.Failed++
		res.note("%s pass %d failed: %v", what, res.Attempted, err)
	}
	firstPass := 0
	start := now()
	for firstPass == 0 || now().Sub(start).Seconds() < cfg.seconds {
		res.Attempted++
		st, err := checkedPass(ctx, cfg, sc, &hw, chk, plainHooks, nil)
		if err != nil {
			fail("untraced", err)
		} else {
			plain = append(plain, st)
		}

		res.Attempted++
		pass := rec.begin(fmt.Sprintf("pass %d", len(traced)+1), root)
		if firstPass == 0 {
			firstPass = pass
		}
		tsc := sc
		tsc.Track = rec.track
		var gz bytes.Buffer
		if err := pprof.StartCPUProfile(&gz); err != nil {
			return res, fmt.Errorf("cpu profile: %w", err)
		}
		st, err = checkedPass(ctx, cfg, tsc, &hw, chk, tracedHooks(rec, cfg.w.name, pass), func(out passOutput) error {
			if out.store == nil {
				return nil
			}
			puts, size, err := storeSize(out.store)
			ckptPuts, ckptBytes = float64(puts), float64(size)
			return err
		})
		pprof.StopCPUProfile()
		rec.end(pass)
		if firstPass == pass {
			if werr := atomicio.WriteFile(spanPath(cfg, "cpu.pprof"), gz.Bytes(), 0o644); err == nil {
				err = werr
			}
		}
		if perr := prof.add(gz.Bytes()); err == nil {
			err = perr
		}
		if err != nil {
			fail("traced", err)
			continue
		}
		traced = append(traced, st)
	}
	if len(plain) == 0 || len(traced) == 0 {
		return res, fmt.Errorf("no pass succeeded")
	}

	drives := rec.begin("drive "+cfg.w.name, root)
	unit := cfg.w.unit(sc)
	var reps []driveResult
	for i := 0; i < driveReps; i++ {
		var d driveResult
		err := rec.within(fmt.Sprintf("unit %s (rep %d)", unit.name, i+1), drives, func(id int) error {
			var err error
			d, err = drive(unit, rec, id, cfg.tmpRoot)
			return err
		})
		res.Attempted++
		if err == nil {
			err = counterChk.check(d.counterText())
		}
		if err != nil {
			fail("drive", err)
			continue
		}
		reps = append(reps, d)
	}
	rec.end(drives)
	rec.end(root)
	if len(reps) == 0 {
		return res, fmt.Errorf("no layer drive succeeded")
	}

	vals := map[string]float64{}
	for _, l := range layers {
		vals[l+".cpu_share"] = prof.share(l)
	}
	timings := make([]string, 0, len(reps[0].timings))
	for name := range reps[0].timings {
		timings = append(timings, name)
	}
	sort.Strings(timings)
	for _, name := range timings {
		var xs []float64
		for _, d := range reps {
			xs = append(xs, d.timings[name])
		}
		vals[name] = median(xs)
	}
	for name, v := range reps[0].counters {
		vals[name] = v
	}
	wall := func(ps []passStats) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.wallS)
		}
		return median(xs)
	}
	var gcS, goS, cpuS, wallS float64
	for _, p := range plain {
		gcS += p.gcCPUS
		goS += p.goCPUS
		cpuS += p.cpuS
		wallS += p.wallS
	}
	vals["runtime.gc_cpu_share"] = gcS / goS
	vals["parexp.cpu_util"] = cpuS / (wallS * workers)
	vals["tracing.overhead_frac"] = wall(traced)/wall(plain) - 1
	vals["checkpoint.puts"] = ckptPuts
	vals["checkpoint.bytes"] = ckptBytes

	// Units are the Scale.Track spans of the first traced pass; an
	// experiment that reports none runs in one piece and is its own unit.
	var units []float64
	for _, exp := range rec.children(firstPass) {
		units = append(units, rec.durations(exp, "unit ")...)
	}
	if len(units) == 0 {
		units = rec.durations(firstPass, "experiment ")
	}
	_, longest := minMax(units)
	vals["experiments.unit_count"] = float64(len(units))
	vals["experiments.unit_p50_s"] = median(units)
	vals["experiments.unit_max_s"] = longest

	spec, err := loadMetricSpec()
	if err != nil {
		return res, err
	}
	for _, m := range spec.PerLayer {
		v, ok := vals[m.Name]
		if !ok {
			return res, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		res.set(m.Name, m.Unit, v)
	}
	res.Correct = res.Failed == 0
	res.note("traced run: %d untraced and %d traced passes, %d layer drives of %q; untraced wall %.4f s, traced %.4f s",
		len(plain), len(traced), len(reps), unit.name, wall(plain), wall(traced))
	res.note("output: %s; %s", chk.describe(), counterChk.describe())
	if err := rec.write(spanPath(cfg, "spans.json")); err != nil {
		return res, err
	}
	if err := atomicio.WriteFile(spanPath(cfg, "counters.txt"), reps[0].counterText(), 0o644); err != nil {
		return res, err
	}
	res.note("wrote %s, %s (first traced pass) and %s", spanPath(cfg, "spans.json"), spanPath(cfg, "cpu.pprof"), spanPath(cfg, "counters.txt"))
	return res, nil
}

// checkedPass runs one measured pass, checks its tables, lets inspect look
// at its output, and removes its store.
func checkedPass(ctx context.Context, cfg runConfig, sc experiments.Scale, hw *heapWatch, chk *checker, hooks passHooks, inspect func(passOutput) error) (passStats, error) {
	var out passOutput
	st, err := measure(hw, func() error {
		var err error
		out, err = runPass(ctx, cfg.w, sc, cfg.tmpRoot, hooks)
		return err
	})
	if err == nil && inspect != nil {
		err = inspect(out)
	}
	if rerr := removeStore(out); err == nil {
		err = rerr
	}
	if err == nil {
		err = chk.check(out.tables)
	}
	return st, err
}

// tracedHooks labels and spans each experiment of a pass; the experiments
// of a resume step nest under its own span.
func tracedHooks(rec *spans, workload string, pass int) passHooks {
	parent := pass
	return passHooks{
		run: func(ctx context.Context, name string, sc experiments.Scale) (string, error) {
			var t string
			err := rec.within("experiment "+name, parent, func(id int) error {
				rec.setExperiment(id)
				var err error
				pprof.Do(ctx, pprof.Labels("workload", workload, "experiment", name), func(ctx context.Context) {
					t, err = runExperiment(ctx, name, sc)
				})
				return err
			})
			return t, err
		},
		resume: func(f func() error) error {
			return rec.within("resume", pass, func(id int) error {
				parent = id
				defer func() { parent = pass }()
				return f()
			})
		},
	}
}

// storeSize counts the complete checkpoint frames in a store and their
// total size in bytes.
func storeSize(st *checkpoint.Store) (int, int64, error) {
	entries, err := st.Scan()
	if err != nil {
		return 0, 0, err
	}
	n, size := 0, int64(0)
	for _, e := range entries {
		if e.State != checkpoint.ScanComplete {
			return 0, 0, fmt.Errorf("torn checkpoint %s", e.Path)
		}
		fi, err := os.Stat(e.Path)
		if err != nil {
			return 0, 0, err
		}
		n++
		size += fi.Size()
	}
	return n, size, nil
}
