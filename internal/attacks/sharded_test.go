package attacks

import (
	"reflect"
	"testing"
)

// TestShardConfigBuildsNewShards: a shard built alone from ShardConfig is
// the shard NewShards builds, every shard attacks the serial attack's
// victim key, and the shards draw from distinct plaintext and simulator
// streams.
func TestShardConfigBuildsNewShards(t *testing.T) {
	cfg := CollisionConfig{Sim: attackerCfg(), Seed: 1}
	victim := NewCollision(cfg).cipher.LastRoundKey()
	shards := NewShards(cfg, 8)
	seen := map[uint64]bool{}
	for s, a := range shards {
		scfg := ShardConfig(cfg, s)
		if !reflect.DeepEqual(a.cfg, scfg) {
			t.Fatalf("shard %d: NewShards config %+v, ShardConfig %+v", s, a.cfg, scfg)
		}
		if got := a.cipher.LastRoundKey(); got != victim {
			t.Fatalf("shard %d attacks round key %x, serial attack %x", s, got, victim)
		}
		if scfg.Seed == cfg.Seed || seen[scfg.Seed] || scfg.Sim.Seed == scfg.Seed {
			t.Fatalf("shard %d: seed %#x (sim %#x) not a fresh stream", s, scfg.Seed, scfg.Sim.Seed)
		}
		seen[scfg.Seed] = true
	}
}
