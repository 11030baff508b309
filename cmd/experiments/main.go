// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run NAME|all] [-scale quick|full] [flags]
//
// Each experiment prints the rows the corresponding table or figure in the
// paper reports. See DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured results.
//
// Long runs are crash-safe: with -checkpoint-dir every completed work unit
// of the resumable experiments (Figure2, Table3, MissQueueSecurity,
// OccupancyMatrix, PolicyMatrix) is flushed to disk the moment it finishes,
// and -resume loads those units instead of re-running them — the resumed
// output is byte-identical to an uninterrupted run at any -workers value.
// The first SIGINT or SIGTERM cancels cooperatively (in-flight units finish
// and flush); a second exits immediately.
//
// Multi-process and multi-machine runs split one resumable experiment's
// units statically: -units k/N runs only the units i with i % N == k,
// flushes them to -checkpoint-dir, prints no table, and exits 0. Run the N
// partitions against one shared store, then render with -resume:
//
//	experiments -run PolicyMatrix -checkpoint-dir D -units 0/4 &   # ... 3/4
//	experiments -run PolicyMatrix -checkpoint-dir D -resume
//
// or give each partition its own store and merge them with -join, which
// adopts every verified unit into -checkpoint-dir and renders from the
// merged store. Either render recomputes any unit still missing (a killed
// partition's), and its stdout is byte-identical to a single-process run.
//
// Exit codes: 0 success (including a -units partition run); 1 experiment
// failure; 2 usage error; 3 interrupted by a signal (completed units were
// flushed if -checkpoint-dir was set); 4 -timeout deadline exceeded (same
// flush guarantee); 130 hard exit on a second signal; 137 fault-injected
// kill (-fault-plan, crash tests only).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"randfill/internal/checkpoint"
	"randfill/internal/experiments"
	"randfill/internal/faultinject"
	"randfill/internal/profiling"
)

func main() { os.Exit(run()) }

// usage prints a flag error and returns the usage exit code.
func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	return 2
}

func run() int {
	runFlag := flag.String("run", "all", "experiment to run (Figure2, Table3, Figure5..Figure10, Traffic, Prefetch) or 'all'")
	scale := flag.String("scale", "quick", "budget scale: quick or full")
	seed := flag.Uint64("seed", 0, "override the random seed (0 = scale default)")
	attackCap := flag.Int("attack-cap", 0, "override the Table3 measurements-to-success cap")
	mcTrials := flag.Int("mc-trials", 0, "override the Table3 Monte Carlo trial count")
	workers := flag.Int("workers", 0, "parallel workers per experiment (0 = GOMAXPROCS); output is byte-identical for any value")
	list := flag.Bool("list", false, "list available experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	ckptDir := flag.String("checkpoint-dir", "", "flush each completed work unit of the resumable experiments to this directory")
	resume := flag.Bool("resume", false, "load completed units from -checkpoint-dir instead of re-running them")
	timeout := flag.Duration("timeout", 0, "overall deadline for the run (0 = none); on expiry completed units are already flushed")
	faultPlan := flag.String("fault-plan", "", "fault-injection plan for crash testing, e.g. 'kill-after-puts=3' (see internal/faultinject)")
	units := flag.String("units", "", "run only partition k/N of a resumable experiment's units (i % N == k), flush them to -checkpoint-dir, and print no table")
	joinSrcs := flag.String("join", "", "comma-separated checkpoint dirs to merge into -checkpoint-dir, then render from the merged store")
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stop()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.Name, e.Description)
		}
		return 0
	}

	var sc experiments.Scale
	switch strings.ToLower(*scale) {
	case "quick":
		sc = experiments.QuickScale()
	case "full":
		sc = experiments.FullScale()
	default:
		return usage("unknown scale %q (want quick or full)", *scale)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *attackCap != 0 {
		sc.AttackMaxSamples = *attackCap
	}
	if *mcTrials != 0 {
		sc.MonteCarloTrials = *mcTrials
	}
	sc.Workers = *workers

	var plan *faultinject.Plan
	if *faultPlan != "" {
		p, err := faultinject.Parse(*faultPlan)
		if err != nil {
			return usage("%v", err)
		}
		plan = p
	}

	var todo []experiments.Experiment
	if strings.EqualFold(*runFlag, "all") {
		todo = experiments.All()
	} else {
		e, ok := experiments.ByName(*runFlag)
		if !ok {
			return usage("unknown experiment %q; -list shows the registry", *runFlag)
		}
		todo = []experiments.Experiment{e}
	}
	if *units != "" {
		p, err := experiments.ParsePartition(*units)
		if err != nil {
			return usage("-units: %v", err)
		}
		if *ckptDir == "" {
			return usage("-units requires -checkpoint-dir (the store its units are flushed to)")
		}
		if len(todo) != 1 || !todo[0].Resumable {
			var names []string
			for _, e := range experiments.All() {
				if e.Resumable {
					names = append(names, e.Name)
				}
			}
			return usage("-units requires a single resumable -run experiment (%s); got %q", strings.Join(names, ", "), *runFlag)
		}
		sc.Units = p
	}

	if *ckptDir == "" {
		if *resume {
			return usage("-resume requires -checkpoint-dir")
		}
		if *joinSrcs != "" {
			return usage("-join requires -checkpoint-dir (the destination store)")
		}
		if *faultPlan != "" {
			return usage("-fault-plan requires -checkpoint-dir (it injects faults at checkpoint writes)")
		}
	} else {
		store, err := checkpoint.Open(*ckptDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 2
		}
		if plan != nil {
			store.Hooks = plan
		}
		sc.Checkpoint = store
		sc.Resume = *resume
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	// First signal: cancel cooperatively — workers stop claiming new units,
	// units already running finish and flush their checkpoints, and the run
	// exits 3. Second signal: exit immediately.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "experiments: received %v; finishing in-flight work and flushing checkpoints (signal again to exit immediately)\n", s)
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "experiments: second signal, exiting immediately")
		os.Exit(130)
	}()

	if *joinSrcs != "" {
		rep, err := sc.Checkpoint.Join(strings.Split(*joinSrcs, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "experiments: join: %d adopted, %d already present, %d torn skipped\n",
			rep.Adopted, rep.AlreadyPresent, rep.TornSkipped)
		// Render from the merged store: with every unit present this
		// restores rather than recomputes, and the output is byte-identical
		// to an uninterrupted single-process run.
		sc.Resume = true
	}

	return runExperiments(ctx, sc, todo)
}

// runExperiments runs each requested experiment and prints its table.
func runExperiments(ctx context.Context, sc experiments.Scale, todo []experiments.Experiment) int {
	note := ""
	if sc.Checkpoint != nil {
		note = "; completed units are flushed to " + sc.Checkpoint.Dir() + " — rerun with -resume to continue"
	}
	for _, e := range todo {
		//lint:ignore detrand wall-clock progress display only; never feeds simulator or experiment state
		start := time.Now()
		t, err := e.Run(ctx, sc)
		if err != nil {
			switch {
			case errors.Is(err, experiments.ErrPartial):
				// A -units partition run: its units are flushed and a
				// -resume or -join run renders the table.
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 0
			case errors.Is(err, context.DeadlineExceeded):
				fmt.Fprintf(os.Stderr, "experiments: %s: deadline exceeded, results are partial%s\n", e.Name, note)
				return 4
			case errors.Is(err, context.Canceled):
				fmt.Fprintf(os.Stderr, "experiments: %s: interrupted, results are partial%s\n", e.Name, note)
				return 3
			default:
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
				return 1
			}
		}
		fmt.Println(t)
		// The timing footer goes to stderr so stdout carries exactly the
		// tables: resume tests byte-compare stdout across runs.
		//lint:ignore detrand wall-clock progress display only; never feeds simulator or experiment state
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
