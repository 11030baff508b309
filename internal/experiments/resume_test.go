package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"randfill/internal/attacks"
	"randfill/internal/checkpoint"
	"randfill/internal/parexp"
)

// countingHooks counts checkpoint writes, so the tests can assert which
// units were restored vs re-run.
type countingHooks struct{ puts atomic.Int64 }

func (h *countingHooks) BeforePut(checkpoint.Meta) error  { return nil }
func (h *countingHooks) AfterPut(checkpoint.Meta, string) { h.puts.Add(1) }
func (h *countingHooks) count() int                       { return int(h.puts.Load()) }

func openStore(t *testing.T, dir string) (*checkpoint.Store, *countingHooks) {
	t.Helper()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := &countingHooks{}
	st.Hooks = h
	return st, h
}

// ckptFiles lists every checkpoint file (complete or torn) via the store's
// own Scan, so the tests and the production inventory agree on what counts
// as a checkpoint file.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Path)
	}
	return names
}

// TestFigure2ResumeByteIdentical is the resume contract end to end,
// in-process: a checkpointing run, a partially-destroyed checkpoint dir,
// and a resumed run at a different worker count all render the same bytes.
func TestFigure2ResumeByteIdentical(t *testing.T) {
	e, _ := ByName("Figure2")
	sc := tinyScale()
	sc.Workers = 2
	clean := mustRun(t, e, sc)

	dir := t.TempDir()
	st, h := openStore(t, dir)
	sc.Checkpoint = st
	if got := mustRun(t, e, sc); got != clean {
		t.Fatal("checkpointing changed the output")
	}
	if h.count() != 8 {
		t.Fatalf("%d checkpoint writes, want 8 (one per shard)", h.count())
	}

	// Destroy shard checkpoints: delete one, tear another mid-file. Both
	// must silently re-run on resume.
	files := ckptFiles(t, dir)
	if len(files) != 8 {
		t.Fatalf("%d .ckpt files, want 8", len(files))
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[1], 10); err != nil {
		t.Fatal(err)
	}

	st2, h2 := openStore(t, dir)
	sc.Checkpoint = st2
	sc.Resume = true
	sc.Workers = 8
	if got := mustRun(t, e, sc); got != clean {
		t.Fatal("resumed output differs from clean run")
	}
	if h2.count() != 2 {
		t.Fatalf("resume re-ran %d shards, want exactly the 2 damaged ones", h2.count())
	}

	// Fully-checkpointed resume: nothing re-runs, same bytes.
	st3, h3 := openStore(t, dir)
	sc.Checkpoint = st3
	sc.Workers = 1
	if got := mustRun(t, e, sc); got != clean {
		t.Fatal("fully-restored output differs from clean run")
	}
	if h3.count() != 0 {
		t.Fatalf("fully-checkpointed resume still wrote %d checkpoints", h3.count())
	}
}

// TestFigure2CheckpointSeedIsShardSeed: each Figure2 checkpoint is bound
// to the seed its shard attacker actually ran with — the attacker
// attacks.ShardConfig derives, which is the one attacks.NewShards builds —
// and that attacker reproduces the stored payload byte for byte.
func TestFigure2CheckpointSeedIsShardSeed(t *testing.T) {
	sc := tinyScale()
	st, _ := openStore(t, t.TempDir())
	sc.Checkpoint = st
	var mu sync.Mutex
	metas := map[int]checkpoint.Meta{}
	sc.Track = func(m checkpoint.Meta, done bool) {
		mu.Lock()
		defer mu.Unlock()
		metas[m.Shard] = m
	}
	runTable(t, Figure2, sc)

	cfg := attacks.CollisionConfig{Sim: attackerSim(), Seed: sc.Seed}
	counts := parexp.SplitCounts(sc.Figure2Samples, parexp.Shards)
	for i := 0; i < parexp.Shards; i++ {
		m, ok := metas[i]
		if !ok {
			t.Fatalf("unit %d never ran", i)
		}
		scfg := attacks.ShardConfig(cfg, i)
		if m.Seed != scfg.Seed {
			t.Errorf("unit %d stored seed %#x, its attacker ran with %#x", i, m.Seed, scfg.Seed)
		}
		stored, ok, err := st.Get(m)
		if err != nil || !ok {
			t.Fatalf("unit %d: checkpoint not readable (ok=%v, err=%v)", i, ok, err)
		}
		atk := attacks.NewCollision(scfg)
		atk.Collect(counts[i])
		want, err := atk.Stats().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, want) {
			t.Errorf("unit %d: stored stats differ from the seed-%#x attacker's", i, scfg.Seed)
		}
	}
}

// TestResumeRejectsOtherConfig: checkpoints are bound to the budget knobs
// and seed via the config hash, so resuming under a different configuration
// re-runs everything rather than merging foreign shards.
func TestResumeRejectsOtherConfig(t *testing.T) {
	e, _ := ByName("MissQueueSecurity")
	dir := t.TempDir()
	sc := tinyScale()
	st, h := openStore(t, dir)
	sc.Checkpoint = st
	mustRun(t, e, sc)
	if h.count() != 3 {
		t.Fatalf("%d checkpoint writes, want 3", h.count())
	}

	changed := tinyScale()
	changed.AttackMaxSamples /= 2
	st2, h2 := openStore(t, dir)
	changed.Checkpoint = st2
	changed.Resume = true
	mustRun(t, e, changed)
	if h2.count() != 3 {
		t.Fatalf("changed-config resume reused checkpoints (%d writes, want 3)", h2.count())
	}

	seedChanged := tinyScale()
	seedChanged.Seed++
	st3, h3 := openStore(t, dir)
	seedChanged.Checkpoint = st3
	seedChanged.Resume = true
	mustRun(t, e, seedChanged)
	if h3.count() != 3 {
		t.Fatalf("changed-seed resume reused checkpoints (%d writes, want 3)", h3.count())
	}
}

// TestTable3ResumeByteIdentical exercises the cell-granular experiment: a
// half-checkpointed Table3 resumes to the clean bytes, re-running only the
// missing cells.
func TestTable3ResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("several tiny Table3 sweeps")
	}
	e, _ := ByName("Table3")
	sc := tinyScale()
	clean := mustRun(t, e, sc)

	dir := t.TempDir()
	st, h := openStore(t, dir)
	sc.Checkpoint = st
	if got := mustRun(t, e, sc); got != clean {
		t.Fatal("checkpointing changed the output")
	}
	if h.count() != 12 {
		t.Fatalf("%d checkpoint writes, want 12 (one per cell)", h.count())
	}
	files := ckptFiles(t, dir)
	for _, f := range files[:6] {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	st2, h2 := openStore(t, dir)
	sc.Checkpoint = st2
	sc.Resume = true
	sc.Workers = 8
	if got := mustRun(t, e, sc); got != clean {
		t.Fatal("resumed Table3 differs from clean run")
	}
	if h2.count() != 6 {
		t.Fatalf("resume re-ran %d cells, want 6", h2.count())
	}
}

// TestCheckpointFileNamesCarryExperiment pins the operator-facing layout:
// one file per unit, named by experiment.
func TestCheckpointFileNamesCarryExperiment(t *testing.T) {
	e, _ := ByName("MissQueueSecurity")
	dir := t.TempDir()
	sc := tinyScale()
	st, _ := openStore(t, dir)
	sc.Checkpoint = st
	mustRun(t, e, sc)
	for _, f := range ckptFiles(t, dir) {
		if !strings.Contains(filepath.Base(f), "MissQueueSecurity") {
			t.Fatalf("checkpoint file %q does not name its experiment", f)
		}
	}
}
