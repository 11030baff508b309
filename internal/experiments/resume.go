package experiments

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"randfill/internal/checkpoint"
	"randfill/internal/parexp"
	"randfill/internal/rng"
)

// configHash binds a checkpoint to everything that determines a shard's
// bytes: the experiment, every budget knob, the master seed, the fixed
// shard count, and the RNG stream version. Workers and Units are
// deliberately absent — worker-count invariance means a run checkpointed at
// -workers 8 may resume at -workers 1 and still reproduce the uninterrupted
// output exactly, and every partition writes the same unit identities.
func (sc Scale) configHash(exp string) uint64 {
	return checkpoint.Hash(
		exp,
		fmt.Sprintf("mc=%d", sc.MonteCarloTrials),
		fmt.Sprintf("cap=%d", sc.AttackMaxSamples),
		fmt.Sprintf("batch=%d", sc.AttackBatch),
		fmt.Sprintf("fig2=%d", sc.Figure2Samples),
		fmt.Sprintf("cbc=%d", sc.CBCBytes),
		fmt.Sprintf("spec=%d", sc.SpecAccesses),
		fmt.Sprintf("seed=%d", sc.Seed),
		fmt.Sprintf("shards=%d", parexp.Shards),
		fmt.Sprintf("stream=%d", rng.StreamVersion),
	)
}

// unitPlan is one resumable experiment's fixed work-unit plan: n units,
// each a pure function of (Scale, i) with an exact binary codec. runShards
// is its only driver, so a unit computes identical bytes no matter which
// process, partition, or worker count ran it.
type unitPlan[T any] struct {
	exp       string
	n         int
	seed      func(i int) uint64
	run       func(ctx context.Context, i int) (T, error)
	marshal   func(T) ([]byte, error)
	unmarshal func([]byte) (T, error)
}

// meta is unit i's checkpoint identity under sc.
func (p unitPlan[T]) meta(sc Scale, hash uint64, i int) checkpoint.Meta {
	return checkpoint.Meta{
		Experiment:    p.exp,
		Shard:         i,
		Seed:          p.seed(i),
		ConfigHash:    hash,
		StreamVersion: rng.StreamVersion,
	}
}

// ErrPartial is returned (wrapped, with a count of what ran) by a resumable
// experiment whose Scale.Units selects a proper partition: the partition's
// units are flushed to Scale.Checkpoint, the rest belong to other
// partitions, so there is no table to render. A later -resume or -join run
// over the shared store renders it.
var ErrPartial = errors.New("partial run")

// Partition is a static share of a resumable experiment's work units: unit
// i belongs to partition K of N when i % N == K. The zero value (and any
// N ≤ 1) is the whole plan. N processes running partitions 0..N-1 over one
// store, or over N stores merged with -join, cover every unit exactly once.
type Partition struct{ K, N int }

// ParsePartition parses "k/N" with 0 ≤ k < N.
func ParsePartition(s string) (Partition, error) {
	ks, ns, ok := strings.Cut(s, "/")
	k, kerr := strconv.Atoi(ks)
	n, nerr := strconv.Atoi(ns)
	if !ok || kerr != nil || nerr != nil || n <= 0 || k < 0 || k >= n {
		return Partition{}, fmt.Errorf("partition %q: want k/N with 0 <= k < N", s)
	}
	return Partition{K: k, N: n}, nil
}

// Whole reports whether p selects every unit.
func (p Partition) Whole() bool { return p.N <= 1 }

// Has reports whether unit i belongs to p.
func (p Partition) Has(i int) bool { return p.Whole() || i%p.N == p.K }

func (p Partition) String() string { return fmt.Sprintf("%d/%d", p.K, p.N) }

// runShards executes a unitPlan's independent work units with optional
// checkpointing, and is the primitive every resumable experiment is built
// on. Unit i's result must be a pure function of (sc, i) — never of worker
// count or of other units — which is what makes the recovery story simple:
// a unit either completed (its checkpoint holds the exact accumulator
// bytes) or it didn't (it re-runs from scratch).
//
// With sc.Checkpoint set, each unit is flushed through the store the moment
// it completes, inside the worker, so a cancellation or crash between units
// loses only work in flight. With sc.Resume also set, units whose
// checkpoint loads (and whose meta — seed, config hash, stream version —
// matches) are not re-run; torn, corrupt, or mismatched checkpoints read as
// missing and the unit re-runs. Results are returned in unit order
// regardless of which were restored.
//
// With sc.Units a proper partition, only the units it selects are restored
// or run; after flushing them runShards returns an error wrapping
// ErrPartial instead of results.
//
// sc.Track, when set, observes each executed unit starting and durably
// finishing (restored units are never reported).
func runShards[T any](ctx context.Context, sc Scale, p unitPlan[T]) ([]T, error) {
	hash := sc.configHash(p.exp)
	meta := func(i int) checkpoint.Meta { return p.meta(sc, hash, i) }

	out := make([]T, p.n)
	restored := make([]bool, p.n)
	if sc.Checkpoint != nil && sc.Resume {
		for i := 0; i < p.n; i++ {
			if !sc.Units.Has(i) {
				continue
			}
			payload, ok, err := sc.Checkpoint.Get(meta(i))
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			v, err := p.unmarshal(payload)
			if err != nil {
				continue // undecodable payload: treat as missing, re-run
			}
			out[i] = v
			restored[i] = true
		}
	}
	var missing []int
	mine := 0
	for i := 0; i < p.n; i++ {
		if sc.Units.Has(i) {
			mine++
			if !restored[i] {
				missing = append(missing, i)
			}
		}
	}
	if len(missing) > 0 {
		err := sc.engine().ForEachCtx(ctx, len(missing), func(ctx context.Context, k int) error {
			i := missing[k]
			if sc.Track != nil {
				sc.Track(meta(i), false)
			}
			v, err := p.run(ctx, i)
			if err != nil {
				return err
			}
			out[i] = v
			if sc.Checkpoint != nil {
				data, err := p.marshal(v)
				if err != nil {
					return err
				}
				if err := sc.Checkpoint.Put(meta(i), data); err != nil {
					return err
				}
			}
			if sc.Track != nil {
				sc.Track(meta(i), true)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if !sc.Units.Whole() {
		return nil, fmt.Errorf("%s units %v: %w: %d executed, %d already stored, %d left to other partitions",
			p.exp, sc.Units, ErrPartial, len(missing), mine-len(missing), p.n-mine)
	}
	return out, nil
}
