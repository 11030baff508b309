package faultinject

import (
	"testing"
	"time"

	"randfill/internal/checkpoint"
	"randfill/internal/rng"
)

func TestParseEmpty(t *testing.T) {
	p, err := Parse("  ")
	if err != nil || p != nil {
		t.Fatalf("Parse(empty) = %v, %v; want nil, nil", p, err)
	}
}

func TestParseClauses(t *testing.T) {
	p, err := Parse("kill-after-puts=3, fail-put=1,torn-put=2,corrupt-put=4,delay-put=5:250ms,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if p.KillAfterPuts != 3 || p.FailPut != 1 || p.TornPut != 2 || p.CorruptPut != 4 {
		t.Fatalf("parsed %+v", p)
	}
	if p.DelayPut != 5 || p.Delay != 250*time.Millisecond || p.Seed != 9 {
		t.Fatalf("parsed %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=1", "kill-after-puts", "kill-after-puts=x", "fail-put=-1",
		"delay-put=1", "delay-put=1:xyz", "delay-put=x:1s",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded", spec)
		}
	}
}

func meta(shard int) checkpoint.Meta {
	return checkpoint.Meta{Experiment: "t", Shard: shard, ConfigHash: 1, StreamVersion: rng.StreamVersion}
}

// storeWithPlan opens a store in a temp dir with the plan hooked in.
func storeWithPlan(t *testing.T, p *Plan) *checkpoint.Store {
	t.Helper()
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Hooks = p
	return st
}

func TestFailPutFailsExactlyTheNthWrite(t *testing.T) {
	p, err := Parse("fail-put=2")
	if err != nil {
		t.Fatal(err)
	}
	st := storeWithPlan(t, p)
	if err := st.Put(meta(0), []byte("a")); err != nil {
		t.Fatalf("put 1: %v", err)
	}
	if err := st.Put(meta(1), []byte("b")); err == nil {
		t.Fatal("put 2 should have failed")
	}
	if err := st.Put(meta(2), []byte("c")); err != nil {
		t.Fatalf("put 3: %v", err)
	}
	// The failed shard left no file behind and reads as missing.
	if _, ok, _ := st.Get(meta(1)); ok {
		t.Fatal("failed put produced a readable checkpoint")
	}
	if _, ok, _ := st.Get(meta(2)); !ok {
		t.Fatal("put after the injected failure was lost")
	}
}

func TestTornPutIsDetectedOnGet(t *testing.T) {
	p, err := Parse("torn-put=1")
	if err != nil {
		t.Fatal(err)
	}
	st := storeWithPlan(t, p)
	if err := st.Put(meta(0), []byte("accumulator bytes")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(meta(0)); ok || err != nil {
		t.Fatalf("torn checkpoint: ok=%v err=%v, want missing", ok, err)
	}
}

func TestCorruptPutIsDetectedOnGet(t *testing.T) {
	p, err := Parse("corrupt-put=1,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	st := storeWithPlan(t, p)
	if err := st.Put(meta(0), []byte("accumulator bytes")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(meta(0)); ok || err != nil {
		t.Fatalf("corrupt checkpoint: ok=%v err=%v, want missing", ok, err)
	}
}

func TestKillAfterPuts(t *testing.T) {
	p, err := Parse("kill-after-puts=2")
	if err != nil {
		t.Fatal(err)
	}
	exited := -1
	p.exit = func(code int) { exited = code }
	st := storeWithPlan(t, p)
	if err := st.Put(meta(0), nil); err != nil || exited != -1 {
		t.Fatalf("put 1: err=%v exited=%d", err, exited)
	}
	if err := st.Put(meta(1), nil); err != nil {
		t.Fatal(err)
	}
	if exited != KillExitCode {
		t.Fatalf("exit code %d, want %d", exited, KillExitCode)
	}
	// Both checkpoints were durably published before the "crash".
	for s := 0; s < 2; s++ {
		if _, ok, _ := st.Get(meta(s)); !ok {
			t.Errorf("shard %d checkpoint lost in crash", s)
		}
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	var p Plan
	st := storeWithPlan(t, &p)
	for s := 0; s < 5; s++ {
		if err := st.Put(meta(s), []byte{byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	if p.Puts() != 5 {
		t.Fatalf("observed %d puts, want 5", p.Puts())
	}
}

func TestDamageIsBestEffortOnMissingFile(t *testing.T) {
	var p Plan
	p.corrupt("/nonexistent/file")
	p.tear("/nonexistent/file")
}

// TestParseProcessClauseErrors: faults act only at checkpoint writes, so
// whole-process clauses are not part of the plan language and are rejected
// rather than silently injecting nothing.
func TestParseProcessClauseErrors(t *testing.T) {
	for _, spec := range []string{
		"kill-worker-after-units=1", "stall-worker=1:1s", "torn-lease=1", "clock-skew=1s",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded", spec)
		}
	}
}
