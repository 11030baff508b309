package parexp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var bg = context.Background()

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 32} {
		e := New(workers)
		const n = 1000
		var counts [n]atomic.Int64
		if err := e.ForEach(bg, n, func(_ context.Context, i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestMapReturnsIndexOrderedResults(t *testing.T) {
	e := New(8)
	got, err := Map(e, bg, 100, func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapIsWorkerCountInvariant(t *testing.T) {
	// The engine's core guarantee on a computation with per-shard streams:
	// identical output for any worker count.
	run := func(workers int) []uint64 {
		e := New(workers)
		seeds := ShardSeeds(42, 16)
		out, err := Map(e, bg, 16, func(_ context.Context, i int) (uint64, error) {
			// Simulate a shard that consumes its own derived stream.
			s := seeds[i]
			var acc uint64
			for k := 0; k < 100; k++ {
				s = s*6364136223846793005 + 1442695040888963407
				acc ^= s
			}
			return acc, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 4, 8, 13} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d changed the result", w)
		}
	}
}

func TestNewClampsWorkers(t *testing.T) {
	if w := New(0).Workers(); w < 1 {
		t.Fatalf("New(0) workers = %d", w)
	}
	if w := New(-3).Workers(); w < 1 {
		t.Fatalf("New(-3) workers = %d", w)
	}
	if w := New(5).Workers(); w != 5 {
		t.Fatalf("New(5) workers = %d", w)
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	e := New(4)
	ran := false
	for _, n := range []int{0, -5} {
		if err := e.ForEach(bg, n, func(context.Context, int) error {
			ran = true
			return nil
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if ran {
		t.Fatal("fn ran for empty range")
	}
}

// TestForEachPropagatesPanic: a panic in one item reaches the caller as a
// *PanicError naming that item, not as a crash of the worker goroutine.
func TestForEachPropagatesPanic(t *testing.T) {
	err := New(4).ForEach(bg, 100, func(_ context.Context, i int) error {
		if i == 37 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Shard != 37 || pe.Value != "boom" {
		t.Fatalf("err = %v, want *PanicError for shard 37", err)
	}
}

func TestShardSeedsDeterministicAndDistinct(t *testing.T) {
	a := ShardSeeds(7, 16)
	b := ShardSeeds(7, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ShardSeeds not deterministic")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate shard seed %#x", s)
		}
		seen[s] = true
	}
	if reflect.DeepEqual(a, ShardSeeds(8, 16)) {
		t.Fatal("different root seeds produced identical shard seeds")
	}
}

func TestSplitCounts(t *testing.T) {
	cases := []struct {
		total, n int
		want     []int
	}{
		{10, 4, []int{3, 3, 2, 2}},
		{8, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{3, 8, []int{1, 1, 1, 0, 0, 0, 0, 0}},
		{0, 3, []int{0, 0, 0}},
		{5, 1, []int{5}},
	}
	for _, c := range cases {
		got := SplitCounts(c.total, c.n)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitCounts(%d, %d) = %v, want %v", c.total, c.n, got, c.want)
		}
		sum := 0
		for _, v := range got {
			sum += v
		}
		if sum != c.total {
			t.Errorf("SplitCounts(%d, %d) sums to %d", c.total, c.n, sum)
		}
	}
}

func TestForEachCtxCancelBeforeStart(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := false
		err := New(workers).ForEach(ctx, 100, func(context.Context, int) error {
			ran = true
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran {
			t.Fatalf("workers=%d: fn ran under a pre-cancelled ctx", workers)
		}
	}
}

// TestForEachCtxCancelMidRun cancels from inside item 0 while item 1 is the
// only other in-flight item (workers=2). Both in-flight items complete —
// item 1 unblocks via the derived ctx — and no further items are claimed,
// so exactly two items execute.
func TestForEachCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	siblingUp := make(chan struct{})
	var executed atomic.Int64
	err := New(2).ForEach(ctx, 1000, func(c context.Context, i int) error {
		executed.Add(1)
		if i == 0 {
			<-siblingUp // ensure item 1 is in flight before cancelling
			cancel()
			return nil
		}
		close(siblingUp)
		<-c.Done() // sibling: wait for the cancellation to reach us
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := executed.Load(); got != 2 {
		t.Fatalf("%d items executed after mid-run cancel, want exactly the 2 in flight", got)
	}
}

// TestForEachCtxPanicCancelsSiblings: shard 0 panics only after shard 1 is
// definitely running; shard 1 blocks until the panic's cancellation reaches
// it through the derived ctx. The pool must drain with exactly those two
// items executed and report the panic with shard attribution.
func TestForEachCtxPanicCancelsSiblings(t *testing.T) {
	siblingUp := make(chan struct{})
	var executed atomic.Int64
	err := New(2).ForEach(bg, 1000, func(c context.Context, i int) error {
		executed.Add(1)
		if i == 0 {
			<-siblingUp
			panic("boom")
		}
		close(siblingUp)
		<-c.Done()
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Shard != 0 || pe.Value != "boom" {
		t.Fatalf("PanicError = shard %d value %v, want shard 0 \"boom\"", pe.Shard, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError captured no stack")
	}
	if !strings.Contains(err.Error(), "shard 0") {
		t.Errorf("error %q lacks shard attribution", err)
	}
	if got := executed.Load(); got != 2 {
		t.Fatalf("%d items executed after panic, want 2", got)
	}
}

func TestForEachCtxSerialPanicToError(t *testing.T) {
	var executed int
	err := New(1).ForEach(bg, 10, func(_ context.Context, i int) error {
		executed++
		if i == 3 {
			panic(fmt.Errorf("wrapped %d", i))
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Shard != 3 {
		t.Fatalf("err = %v, want PanicError for shard 3", err)
	}
	if executed != 4 {
		t.Fatalf("%d items executed, want 4 (panic stops the serial loop)", executed)
	}
}

func TestForEachCtxErrorPropagation(t *testing.T) {
	sentinel := errors.New("shard failure")
	for _, workers := range []int{1, 4} {
		err := New(workers).ForEach(bg, 8, func(_ context.Context, i int) error {
			if i == 5 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
		if !strings.Contains(err.Error(), "shard 5") {
			t.Fatalf("workers=%d: error %q lacks shard attribution", workers, err)
		}
	}
}

// TestForEachCtxDeadlineExpiry pins the watchdog behavior: items that poll
// the derived ctx return once the deadline passes and the engine reports
// DeadlineExceeded without deadlocking.
func TestForEachCtxDeadlineExpiry(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := New(4).ForEach(ctx, 4, func(c context.Context, i int) error {
		<-c.Done() // a shard that outlives any deadline
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestForEachCtxZeroItems(t *testing.T) {
	if err := New(4).ForEach(bg, 0, nil); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

// TestMapCtxMatchesMap is the metamorphic property the experiments rely
// on: with no cancellation and no errors, Map under a ctx is byte-identical
// to mapping fn over the indices serially — same items, same per-item
// inputs, same order.
func TestMapCtxMatchesMap(t *testing.T) {
	seeds := ShardSeeds(99, 32)
	shard := func(i int) uint64 {
		s := seeds[i]
		var acc uint64
		for k := 0; k < 50; k++ {
			s = s*6364136223846793005 + 1442695040888963407
			acc ^= s
		}
		return acc
	}
	want := make([]uint64, 32)
	for i := range want {
		want[i] = shard(i)
	}
	for _, workers := range []int{1, 2, 8, 13} {
		got, err := Map(New(workers), bg, 32, func(_ context.Context, i int) (uint64, error) {
			return shard(i), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: Map diverged from the serial loop\n got %v\nwant %v", workers, got, want)
		}
	}
}

func TestMapCtxDiscardsPartialResultsOnError(t *testing.T) {
	out, err := Map(New(2), bg, 8, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("got (%v, %v), want (nil, error)", out, err)
	}
}
