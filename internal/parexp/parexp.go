// Package parexp is the deterministic parallel experiment engine: it runs
// the independent trials of a Monte Carlo experiment (Table III cells,
// Figure 2's encryption sweep, the ablation grids) across a pool of worker
// goroutines without giving up the repository's reproducibility contract.
//
// The contract is worker-count invariance: for a fixed seed, an experiment's
// emitted table is byte-identical at workers=1, workers=8, and any
// GOMAXPROCS. Parallelism is a pure speed knob, never a results knob. The
// engine guarantees this by construction, with three rules:
//
//  1. The shard plan is fixed by the experiment, not by the worker count.
//     An experiment splits its trial budget over a constant number of
//     shards (see Shards); workers only decide how many shards execute
//     concurrently.
//  2. Each shard draws from its own rng stream, derived up front from the
//     root seed via Split (ShardSeeds). No shard ever touches another
//     shard's Source, so the values a shard draws are independent of
//     scheduling.
//  3. Results are merged in shard-index order (Map returns an index-ordered
//     slice). Floating-point accumulation order is therefore fixed even
//     though execution order is not.
//
// The rflint rngshare checker enforces rule 2 statically: a *rng.Source
// captured by a go-launched closure is flagged, forcing the
// seed-per-shard-up-front pattern this package's helpers implement.
package parexp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"randfill/internal/rng"
)

// Shards is the default shard count experiments split their trial budgets
// into. It is deliberately a constant rather than "number of workers": the
// shard plan is part of the experiment's definition (it determines which
// shard draws which random values), so it must not change when the machine
// does. Eight shards saturate the common desktop core counts while keeping
// per-shard sample counts large enough for the statistics to be well
// conditioned.
const Shards = 8

// Engine executes independent work items across a fixed-size pool of worker
// goroutines. The zero value is not valid; use New.
type Engine struct {
	workers int
}

// New returns an Engine with the given concurrency. workers <= 0 selects
// GOMAXPROCS, the "use the hardware" default the -workers CLI flag exposes
// as 0. workers == 1 executes inline with no goroutines at all, so a serial
// run has a serial stack.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Workers returns the engine's concurrency.
func (e *Engine) Workers() int { return e.workers }

// PanicError is a work-item panic converted to an error by ForEach: the
// shard index attributes the failure to one work item of the fixed shard
// plan, and Stack preserves the goroutine stack at the panic site.
type PanicError struct {
	// Shard is the work-item index whose fn panicked.
	Shard int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parexp: shard %d panicked: %v", e.Shard, e.Value)
}

// ForEach runs fn(ctx, i) once for every i in [0, n), distributing items
// across the worker pool, and returns when every claimed item is done.
// Items are claimed from an atomic counter, so the i -> goroutine
// assignment is scheduling dependent; fn must therefore be self-contained
// per item (own rng stream, own simulator, writes only to slot i of any
// shared slice). With an uncancelled ctx and an error-free fn every item
// runs exactly once, so the results are the same at any worker count.
//
//   - Cooperative cancellation. Workers stop claiming new items as soon as
//     ctx is cancelled (or its deadline expires); items already executing
//     run to completion unless fn itself observes the ctx it is handed.
//     ForEach then returns ctx.Err() — completed items are NOT undone,
//     which is exactly what checkpointed shard runs need: every shard that
//     finished before the cancel was already flushed.
//   - Error propagation. The first non-nil error from fn cancels the ctx
//     passed to sibling invocations and is returned, wrapped with its shard
//     index.
//   - Panic recovery. A panic in fn becomes a *PanicError carrying the
//     shard index and stack, and cancels siblings the same way.
//
// The ctx handed to fn is derived from the caller's: long-running items
// should poll it (or pass it down) so cancellation is prompt rather than
// item-granular. workers == 1 runs the items inline, in index order.
func (e *Engine) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	work := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Shard: i, Value: r, Stack: debug.Stack()}
			}
		}()
		if err := fn(cctx, i); err != nil {
			return fmt.Errorf("parexp: shard %d: %w", i, err)
		}
		return nil
	}

	w := min(e.workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if cctx.Err() != nil {
				break
			}
			if err := work(i); err != nil {
				fail(err)
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if cctx.Err() != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if err := work(i); err != nil {
						fail(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map runs fn(ctx, i) for every i in [0, n) across the pool and returns the
// results in index order. Because the returned slice is ordered by shard
// index, folding it left-to-right gives a deterministic merge regardless of
// which worker finished first. On cancellation, error, or panic the partial
// results are discarded and only ForEach's error is returned.
func Map[T any](e *Engine, ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := e.ForEach(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ShardSeeds derives n independent shard seeds from a root seed, shard i
// getting rng.New(seed).SplitSeed(i)'s stream. The seeds are computed up
// front on the caller's goroutine: each shard then constructs its own
// Source inside its work item, so no Source is shared across goroutines and
// the per-shard streams depend only on (seed, shard index).
func ShardSeeds(seed uint64, n int) []uint64 {
	root := rng.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = root.SplitSeed(uint64(i))
	}
	return out
}

// SplitCounts partitions total work items over n shards as evenly as
// possible: the first total%n shards get one extra item. The partition is a
// pure function of (total, n), part of the fixed shard plan.
func SplitCounts(total, n int) []int {
	if n <= 0 {
		n = 1
	}
	out := make([]int, n)
	base, rem := total/n, total%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}
