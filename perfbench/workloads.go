package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"randfill/internal/checkpoint"
	"randfill/internal/experiments"
)

// workers is every workload's Scale.Workers: the benchmark host has two
// CPUs, and a fixed count keeps passes comparable across hosts.
const workers = 2

// workload is one benchmark workload: a closed loop of full passes through
// the public experiments registry, one pass at a time.
type workload struct {
	name string
	// scale returns the pass budgets under seed: experiments.QuickScale,
	// cut where a quick pass would take longer than a few seconds, so that
	// a run holds a dozen passes.
	scale func(seed uint64) experiments.Scale
	// experiments names the registry entries one pass runs, in order.
	experiments []string
	// checkpointed passes flush every unit to a fresh store and then
	// render every experiment again from that store (Scale.Resume).
	checkpointed bool
	// unit builds the representative unit the layer drives re-run.
	unit func(sc experiments.Scale) driveUnit
}

var allWorkloads = []workload{
	{
		name: "collision-batch",
		scale: func(seed uint64) experiments.Scale {
			sc := experiments.QuickScale()
			sc.MonteCarloTrials = 2500
			sc.AttackMaxSamples = 4096
			sc.AttackBatch = 4096
			return withRun(sc, seed)
		},
		experiments: []string{"Table3"},
		unit:        collisionUnit,
	},
	{
		name: "smt-corun",
		scale: func(seed uint64) experiments.Scale {
			sc := experiments.QuickScale()
			sc.SpecAccesses = 25_000
			return withRun(sc, seed)
		},
		experiments: []string{"Figure8"},
		unit:        smtUnit,
	},
	{
		name: "design-matrix",
		scale: func(seed uint64) experiments.Scale {
			return withRun(experiments.QuickScale(), seed)
		},
		experiments:  []string{"OccupancyMatrix", "PolicyMatrix"},
		checkpointed: true,
		unit:         designUnit,
	},
}

func withRun(sc experiments.Scale, seed uint64) experiments.Scale {
	sc.Seed = seed
	sc.Workers = workers
	return sc
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// warmScale is the set-up warm-up budget: the pass's own budgets cut
// sixteen-fold, enough to touch every code path and lazy table once.
func warmScale(sc experiments.Scale) experiments.Scale {
	sc.MonteCarloTrials /= 16
	sc.AttackMaxSamples /= 16
	sc.AttackBatch /= 16
	sc.SpecAccesses /= 16
	sc.CBCBytes /= 16
	return sc
}

// passOutput is what one pass produced: the rendered tables and, for a
// checkpointed pass, the store it wrote.
type passOutput struct {
	tables []byte
	store  *checkpoint.Store
}

// runPass runs one full pass of w under sc and returns its rendered tables.
// A checkpointed pass writes every unit to a fresh store under tmpRoot,
// then renders every experiment again from that store alone; the two
// renderings must agree byte for byte. The caller removes the store.
func runPass(ctx context.Context, w workload, sc experiments.Scale, tmpRoot string, hooks passHooks) (passOutput, error) {
	var out passOutput
	if w.checkpointed {
		dir, err := os.MkdirTemp(tmpRoot, "store-")
		if err != nil {
			return out, fmt.Errorf("checkpoint dir: %w", err)
		}
		store, err := checkpoint.Open(dir)
		if err != nil {
			return out, err
		}
		out.store = store
		sc.Checkpoint = store
	}
	var cold strings.Builder
	for _, name := range w.experiments {
		t, err := hooks.run(ctx, name, sc)
		if err != nil {
			return out, err
		}
		cold.WriteString(t)
	}
	out.tables = []byte(cold.String())
	if !w.checkpointed {
		return out, nil
	}
	resumed := sc
	resumed.Resume = true
	var warm strings.Builder
	err := hooks.resume(func() error {
		for _, name := range w.experiments {
			t, err := hooks.run(ctx, name, resumed)
			if err != nil {
				return err
			}
			warm.WriteString(t)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	if warm.String() != cold.String() {
		return out, fmt.Errorf("resume from %s rendered different tables than the cold pass", out.store.Dir())
	}
	return out, nil
}

// passHooks lets the traced run wrap each experiment and the resume step;
// the timed passes use plainHooks.
type passHooks struct {
	run    func(ctx context.Context, name string, sc experiments.Scale) (string, error)
	resume func(f func() error) error
}

var plainHooks = passHooks{run: runExperiment, resume: func(f func() error) error { return f() }}

func runExperiment(ctx context.Context, name string, sc experiments.Scale) (string, error) {
	e, ok := experiments.ByName(name)
	if !ok {
		return "", fmt.Errorf("experiment %s is not registered", name)
	}
	t, err := e.Run(ctx, sc)
	if err != nil {
		return "", fmt.Errorf("%s: %w", name, err)
	}
	return t.String(), nil
}

// removeStore deletes a pass's checkpoint directory.
func removeStore(out passOutput) error {
	if out.store == nil {
		return nil
	}
	dir := out.store.Dir()
	if filepath.Base(dir) == "" || !strings.HasPrefix(filepath.Base(dir), "store-") {
		return fmt.Errorf("refusing to remove unexpected store dir %q", dir)
	}
	return os.RemoveAll(dir)
}
