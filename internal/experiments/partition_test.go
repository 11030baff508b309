package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"randfill/internal/checkpoint"
)

// TestResumableExperimentsHonorUnits: the registry's Resumable entries are
// exactly the runShards experiments, and each one returns ErrPartial for a
// partition that selects none of its units without executing anything.
func TestResumableExperimentsHonorUnits(t *testing.T) {
	var got []string
	for _, e := range All() {
		if e.Resumable {
			got = append(got, e.Name)
		}
	}
	sort.Strings(got)
	want := []string{"Figure2", "MissQueueSecurity", "OccupancyMatrix", "PolicyMatrix", "Table3"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("resumable experiments = %v, want %v", got, want)
	}
	for _, name := range want {
		e, _ := ByName(name)
		sc := tinyScale()
		st, h := openStore(t, t.TempDir())
		sc.Checkpoint = st
		// Every plan has fewer than 1<<20 units, so partition N-1 of N is
		// empty.
		sc.Units = Partition{K: 1<<20 - 1, N: 1 << 20}
		_, err := e.Run(context.Background(), sc)
		if !errors.Is(err, ErrPartial) {
			t.Errorf("%s: err = %v, want ErrPartial", name, err)
		} else if !strings.Contains(err.Error(), "0 executed") {
			t.Errorf("%s: report %q, want 0 executed", name, err)
		}
		if h.count() != 0 {
			t.Errorf("%s: empty partition wrote %d checkpoints", name, h.count())
		}
	}
}

func TestParsePartition(t *testing.T) {
	if p, err := ParsePartition("2/4"); err != nil || p != (Partition{K: 2, N: 4}) || p.String() != "2/4" {
		t.Fatalf("ParsePartition(2/4) = %v, %v", p, err)
	}
	for _, s := range []string{"", "4/4", "5/4", "-1/4", "0/0", "1/-2", "a/4", "1/b", "1", "1/2/3"} {
		if _, err := ParsePartition(s); err == nil {
			t.Errorf("ParsePartition(%q) succeeded", s)
		}
	}
	if !(Partition{}).Whole() || !(Partition{K: 0, N: 1}).Whole() || (Partition{K: 0, N: 2}).Whole() {
		t.Error("Whole misclassifies")
	}
}

// TestPartitionRunsExactlyItsUnits: a k/N run executes exactly the units
// with i % N == k, as Scale.Track observes them, and reports ErrPartial.
func TestPartitionRunsExactlyItsUnits(t *testing.T) {
	e, _ := ByName("Figure2")
	const n = 3 // does not divide Figure2's 8 units
	st, _ := openStore(t, t.TempDir())
	for k := 0; k < n; k++ {
		sc := tinyScale()
		sc.Checkpoint = st
		sc.Units = Partition{K: k, N: n}
		var mu sync.Mutex
		var started, finished []int
		sc.Track = func(m checkpoint.Meta, done bool) {
			mu.Lock()
			defer mu.Unlock()
			if done {
				finished = append(finished, m.Shard)
			} else {
				started = append(started, m.Shard)
			}
		}
		if _, err := e.Run(context.Background(), sc); !errors.Is(err, ErrPartial) {
			t.Fatalf("partition %d/%d: err = %v, want ErrPartial", k, n, err)
		}
		var want []int
		for i := k; i < 8; i += n {
			want = append(want, i)
		}
		sort.Ints(started)
		sort.Ints(finished)
		if !slices.Equal(started, want) || !slices.Equal(finished, want) {
			t.Errorf("partition %d/%d ran units %v (finished %v), want %v", k, n, started, finished, want)
		}
	}
}

// TestPartitionUnitsMatchInProcessRun: the union of N partition runs over
// one store holds checkpoints byte-identical to a whole in-process run's,
// and a resume over it restores the exact table without executing a unit.
func TestPartitionUnitsMatchInProcessRun(t *testing.T) {
	for _, name := range []string{"Figure2", "OccupancyMatrix"} {
		t.Run(name, func(t *testing.T) {
			e, _ := ByName(name)
			sc := tinyScale()
			clean := mustRun(t, e, sc)

			soloDir := t.TempDir()
			soloStore, _ := openStore(t, soloDir)
			scSolo := sc
			scSolo.Checkpoint = soloStore
			mustRun(t, e, scSolo)

			const n = 4
			partDir := t.TempDir()
			for k := 0; k < n; k++ {
				st, _ := openStore(t, partDir)
				scPart := sc
				scPart.Checkpoint = st
				scPart.Units = Partition{K: k, N: n}
				if _, err := e.Run(context.Background(), scPart); !errors.Is(err, ErrPartial) {
					t.Fatalf("partition %d/%d: err = %v, want ErrPartial", k, n, err)
				}
			}

			soloFiles, partFiles := ckptFiles(t, soloDir), ckptFiles(t, partDir)
			if len(soloFiles) == 0 || len(partFiles) != len(soloFiles) {
				t.Fatalf("file counts: solo %d, partitions %d", len(soloFiles), len(partFiles))
			}
			for i, f := range soloFiles {
				want, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(partFiles[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: partition checkpoint differs from in-process run", partFiles[i])
				}
			}

			st, h := openStore(t, partDir)
			scR := sc
			scR.Checkpoint = st
			scR.Resume = true
			if got := mustRun(t, e, scR); got != clean {
				t.Error("restored output differs from a clean run")
			}
			if h.count() != 0 {
				t.Errorf("restore over the partition union executed %d units", h.count())
			}
		})
	}
}

// TestTrackObservesExecutedUnitsOnly: the Track hook sees each executed
// unit start and finish, and stays silent for restored units.
func TestTrackObservesExecutedUnitsOnly(t *testing.T) {
	sc := tinyScale()
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	sc.Checkpoint = st

	type obs struct {
		m    checkpoint.Meta
		done bool
	}
	var mu sync.Mutex
	var seen []obs
	sc.Track = func(m checkpoint.Meta, done bool) {
		mu.Lock()
		seen = append(seen, obs{m, done})
		mu.Unlock()
	}
	e, _ := ByName("Figure2")
	if _, err := e.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	starts, finishes := 0, 0
	for _, o := range seen {
		if o.m.Experiment != "Figure2" {
			t.Errorf("tracked foreign unit %+v", o.m)
		}
		if o.done {
			finishes++
		} else {
			starts++
		}
	}
	if starts != 8 || finishes != 8 {
		t.Fatalf("tracked %d starts, %d finishes; want 8 each", starts, finishes)
	}

	// A fully-restored resume run executes nothing and tracks nothing.
	seen = nil
	sc.Resume = true
	if _, err := e.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 0 {
		t.Fatalf("restored run tracked %d events, want 0", len(seen))
	}
}
