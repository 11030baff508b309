package experiments

import (
	"context"
	"fmt"

	"randfill/internal/attacks"
	"randfill/internal/parexp"
	"randfill/internal/sim"
)

// missQueueSizes is the experiment's miss-queue axis.
var missQueueSizes = []int{2, 4, 8}

// missQueuePlan is MissQueueSecurity's work-unit plan: one miss-queue
// size's full measurements-to-success search per unit (the same
// cell-granularity reasoning as table3Plan: the search's early exit couples
// its shards, so the completed SearchResult is what checkpoints).
func missQueuePlan(sc Scale) unitPlan[attacks.SearchResult] {
	sizes := missQueueSizes
	eng := sc.engine()
	return unitPlan[attacks.SearchResult]{
		exp:  "MissQueueSecurity",
		n:    len(sizes),
		seed: func(int) uint64 { return sc.Seed },
		run: func(ctx context.Context, i int) (attacks.SearchResult, error) {
			cfg := attacks.CollisionConfig{Sim: sim.DefaultConfig(), Seed: sc.Seed}
			cfg.Sim.MissQueue = sizes[i]
			return attacks.MeasurementsToSuccessSharded(ctx, eng, cfg, sc.AttackBatch, sc.AttackMaxSamples, parexp.Shards)
		},
		marshal: func(r attacks.SearchResult) ([]byte, error) { return r.MarshalBinary() },
		unmarshal: func(data []byte) (attacks.SearchResult, error) {
			var r attacks.SearchResult
			err := r.UnmarshalBinary(data)
			return r, err
		},
	}
}

// MissQueueSecurity reproduces the paper's observation that its 1-entry
// miss-queue configuration "requires about 1 order of magnitude less
// samples compared to the baseline configuration ... which has 4 miss queue
// entries" (Section V.A): more outstanding misses overlap, blurring the
// per-collision timing signal. At a fixed measurement budget, the attack
// recovers more key relations against the smaller miss queue.
// It is resumable; missQueuePlan describes its units.
func MissQueueSecurity(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title: "Section V.A: miss queue size vs collision attack progress",
		Headers: []string{"miss queue entries", "sigma_T (cycles)",
			"pairs recovered", "outcome"},
	}
	sizes := missQueueSizes
	results, err := runShards(ctx, sc, missQueuePlan(sc))
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		outcome := fmt.Sprintf("no success at %d samples", res.Measurements)
		if res.Success {
			outcome = fmt.Sprintf("success at %d samples", res.Measurements)
		}
		t.AddRow(fmt.Sprintf("%d", sizes[i]),
			fmt.Sprintf("%.1f", res.SigmaT),
			fmt.Sprintf("%d/15", res.CorrectPairs),
			outcome)
	}
	t.AddNote("paper: the 1-entry configuration needs ~10x fewer samples than the 4-entry baseline; here the 2-entry configuration recovers more pairs than 4 or 8 at the same budget (2 is the smallest queue that still lets random fill requests issue in a trace-driven model — DESIGN.md)")
	return t, nil
}
