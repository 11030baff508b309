package attacks

import (
	"context"

	"randfill/internal/parexp"
	"randfill/internal/rng"
)

// ShardConfig derives shard s's attack config under the fixed shard plan:
// the SAME victim key as the serial attack on cfg (the shards are one
// attack on one victim), but the shard's own Split-derived plaintext seed
// and simulator seed, so shards are independent Monte Carlo samples of the
// same victim, not replicas. The result is a pure function of (cfg, s), so
// a shard built alone — by a resumable experiment's work unit, in any
// process — is the one NewShards builds, and its Seed is the identity a
// checkpoint of that shard is bound to.
func ShardConfig(cfg CollisionConfig, s int) CollisionConfig {
	// Mirror NewCollision's key derivation, then replay the root stream's
	// splits up to s: shard s's seed is the (s+1)-th split after the key.
	root := rng.New(cfg.Seed ^ 0xc0111510)
	if cfg.Key == nil {
		cfg.Key = make([]byte, 16)
		root.Bytes(cfg.Key)
	}
	for j := 0; j <= s; j++ {
		cfg.Seed = root.SplitSeed(uint64(j))
	}
	cfg.Sim.Seed = cfg.Seed ^ 0x5ead
	return cfg
}

// NewShards builds one collision attack per shard of a fixed plan, shard s
// from ShardConfig(cfg, s). Which shard draws which random values never
// depends on how many goroutines execute them.
func NewShards(cfg CollisionConfig, shards int) []*Collision {
	out := make([]*Collision, max(shards, 1))
	for s := range out {
		out[s] = NewCollision(ShardConfig(cfg, s))
	}
	return out
}

// MergeShardStats folds the shard states together in shard-index order and
// returns the aggregate; the shards' own accumulators are left untouched.
func MergeShardStats(shards []*Collision) *CollisionStats {
	agg := shards[0].Stats().Clone()
	for _, a := range shards[1:] {
		agg.Merge(a.Stats())
	}
	return agg
}

// MergeStats is MergeShardStats over bare accumulator states, the form the
// checkpoint layer restores: states[0] seeds the aggregate (via Clone) and
// the rest fold in, in index order. Because the serialized states
// round-trip exactly, merging restored states is byte-identical to merging
// the live shards they were saved from.
func MergeStats(states []*CollisionStats) *CollisionStats {
	agg := states[0].Clone()
	for _, s := range states[1:] {
		agg.Merge(s)
	}
	return agg
}

// MeasurementsToSuccessSharded is the parallel measurements-to-success
// search behind Table III: the sample budget is consumed in rounds of batch
// measurements, each round split over the fixed shard plan; after every
// round the shard states merge (in shard order) and the aggregate is
// checked for full key recovery, exactly like the serial search's batch
// checkpoints. Reported Measurements is the aggregate sample count at the
// first successful checkpoint.
//
// The result is a function of (cfg, batch, maxSamples, shards) only —
// worker count changes wall-clock, never the returned numbers. Note the
// numbers do differ from the serial MeasurementsToSuccess at equal budgets:
// the shards are independent measurement streams, so the grouped means they
// merge are a different (equally valid) Monte Carlo sample of the same
// attack.
//
// Cancellation is checked between rounds and between shard collections; a
// cancelled search returns ctx's error and no result. The search's
// round-by-round early exit is why it checkpoints as one unit rather than
// per shard: a shard's stopping point depends on every other shard's
// measurements at each round boundary. A batch ≤ 0 is an error.
func MeasurementsToSuccessSharded(ctx context.Context, eng *parexp.Engine, cfg CollisionConfig, batch, maxSamples, shards int) (SearchResult, error) {
	if err := checkBatch(batch); err != nil {
		return SearchResult{}, err
	}
	atks := NewShards(cfg, shards)
	best := 0
	collected := 0
	agg := MergeShardStats(atks) // degenerate budgets report an empty aggregate
	for collected < maxSamples {
		n := batch
		if rem := maxSamples - collected; n > rem {
			n = rem
		}
		counts := parexp.SplitCounts(n, len(atks))
		err := eng.ForEach(ctx, len(atks), func(_ context.Context, s int) error {
			atks[s].Collect(counts[s])
			return nil
		})
		if err != nil {
			return SearchResult{}, err
		}
		collected += n
		agg = MergeShardStats(atks)
		if c := agg.CorrectPairs(); c > best {
			best = c
		}
		if agg.Success() {
			return SearchResult{
				Measurements: agg.Samples(),
				Success:      true,
				CorrectPairs: agg.Pairs(),
				SigmaT:       agg.SigmaT(),
			}, nil
		}
	}
	return SearchResult{
		Measurements: agg.Samples(),
		Success:      false,
		CorrectPairs: best,
		SigmaT:       agg.SigmaT(),
	}, nil
}
