package main

// The partition suite drives the real experiments binary as a
// multi-process fabric: N processes each run one static -units k/N
// partition of an experiment into a shared or private checkpoint store,
// and a -resume or -join run renders the table. The contract is that the
// rendered stdout is byte-identical to a single-process run however the
// units were split, killed, re-run or merged.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"randfill/internal/faultinject"
)

// proc is one running experiments process with captured streams.
type proc struct {
	cmd      *exec.Cmd
	out, err bytes.Buffer
}

// startBin launches the experiments binary without waiting and registers a
// hard-kill cleanup so a hung process cannot wedge the test run.
func startBin(t *testing.T, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(binary(t), args...)}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.err
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %v: %v", args, err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			// Best-effort teardown of an already-failed test.
			_ = p.cmd.Process.Kill()
			_ = p.cmd.Wait()
		}
	})
	return p
}

// wait blocks for the process and returns its streams and exit code.
func (p *proc) wait(t *testing.T) runResult {
	t.Helper()
	err := p.cmd.Wait()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("waiting for %v: %v", p.cmd.Args, err)
		}
		code = ee.ExitCode()
	}
	return runResult{p.out.String(), p.err.String(), code}
}

const partitions = 4

// runPartitions runs partitions 0..3 of name concurrently, partition k
// into dirs[k] with -fault-plan faults[k] when set, and returns each
// process's result.
func runPartitions(t *testing.T, name string, dirs []string, faults map[int]string) []runResult {
	t.Helper()
	procs := make([]*proc, partitions)
	for k := range procs {
		args := []string{"-run", name, "-scale", "quick", "-checkpoint-dir", dirs[k],
			"-units", fmt.Sprintf("%d/%d", k, partitions)}
		if f, ok := faults[k]; ok {
			args = append(args, "-fault-plan", f)
		}
		procs[k] = startBin(t, args...)
	}
	res := make([]runResult, partitions)
	for k, p := range procs {
		res[k] = p.wait(t)
	}
	return res
}

// sameDir repeats one directory for every partition.
func sameDir(dir string) []string {
	dirs := make([]string, partitions)
	for k := range dirs {
		dirs[k] = dir
	}
	return dirs
}

// checkPartitionRun asserts a partition process exited 0 with empty stdout
// and its one-line report on stderr.
func checkPartitionRun(t *testing.T, k int, r runResult) {
	t.Helper()
	if r.code != 0 {
		t.Fatalf("partition %d exited %d:\n%s", k, r.code, r.stderr)
	}
	if r.stdout != "" {
		t.Errorf("partition %d printed to stdout:\n%s", k, r.stdout)
	}
	if !strings.Contains(r.stderr, fmt.Sprintf("units %d/%d: partial run:", k, partitions)) {
		t.Errorf("partition %d stderr lacks its report:\n%s", k, r.stderr)
	}
}

// storeState lists every checkpoint file's name, size and mtime in Scan
// order, so a render can be shown to have executed (and written) nothing.
func storeState(t *testing.T, dir string) []string {
	t.Helper()
	var state []string
	for _, f := range ckpts(t, dir) {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		state = append(state, fmt.Sprintf("%s %d@%d", filepath.Base(f), fi.Size(), fi.ModTime().UnixNano()))
	}
	return state
}

// renderFrom runs the -resume render over dir and asserts it prints the
// single-process bytes without executing a unit.
func renderFrom(t *testing.T, name, dir, clean string) {
	t.Helper()
	before := storeState(t, dir)
	res := runBin(t, "-run", name, "-scale", "quick", "-checkpoint-dir", dir, "-resume")
	if res.code != 0 {
		t.Fatalf("render exited %d:\n%s", res.code, res.stderr)
	}
	if res.stdout != clean {
		t.Errorf("rendered stdout differs from single-process run\n--- rendered ---\n%s--- clean ---\n%s",
			res.stdout, clean)
	}
	if after := storeState(t, dir); !slices.Equal(after, before) {
		t.Errorf("render changed the store\n--- before ---\n%s\n--- after ---\n%s",
			strings.Join(before, "\n"), strings.Join(after, "\n"))
	}
}

// TestFabricByteIdenticalAcrossTopologies is the headline multi-process
// acceptance test: for an attack experiment and the policy matrix, a
// single-process 8-worker run prints the same bytes as 4 concurrent
// partitions over one store, 4 partitions of which 2 are fault-killed and
// re-run with -resume, and 4 partitions in 4 stores merged with -join.
func TestFabricByteIdenticalAcrossTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process partition runs")
	}
	for _, name := range []string{"Figure2", "PolicyMatrix"} {
		t.Run(name, func(t *testing.T) {
			clean := runBin(t, "-run", name, "-scale", "quick", "-workers", "8")
			if clean.code != 0 {
				t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
			}

			t.Run("FourWorkers", func(t *testing.T) {
				dir := t.TempDir()
				saveArtifacts(t, dir)
				for k, r := range runPartitions(t, name, sameDir(dir), nil) {
					checkPartitionRun(t, k, r)
				}
				renderFrom(t, name, dir, clean.stdout)
			})

			t.Run("TwoWorkersKilled", func(t *testing.T) {
				// Partitions 0 and 1 die after flushing one unit each; re-run
				// with -resume, they execute only the units they lost.
				dir := t.TempDir()
				saveArtifacts(t, dir)
				kill := "kill-after-puts=1"
				res := runPartitions(t, name, sameDir(dir), map[int]string{0: kill, 1: kill})
				for _, k := range []int{0, 1} {
					if res[k].code != faultinject.KillExitCode {
						t.Fatalf("killed partition %d exited %d, want %d:\n%s",
							k, res[k].code, faultinject.KillExitCode, res[k].stderr)
					}
				}
				for _, k := range []int{2, 3} {
					checkPartitionRun(t, k, res[k])
				}
				for _, k := range []int{0, 1} {
					r := runBin(t, "-run", name, "-scale", "quick", "-checkpoint-dir", dir,
						"-units", fmt.Sprintf("%d/%d", k, partitions), "-resume")
					checkPartitionRun(t, k, r)
					if !strings.Contains(r.stderr, ", 1 already stored,") {
						t.Errorf("re-run partition %d did not restore its flushed unit:\n%s", k, r.stderr)
					}
				}
				renderFrom(t, name, dir, clean.stdout)
			})

			t.Run("FourStoresJoined", func(t *testing.T) {
				dirs := make([]string, partitions)
				for k := range dirs {
					dirs[k] = t.TempDir()
				}
				for k, r := range runPartitions(t, name, dirs, nil) {
					checkPartitionRun(t, k, r)
				}
				dst := t.TempDir()
				saveArtifacts(t, dst)
				joined := runBin(t, "-run", name, "-scale", "quick",
					"-checkpoint-dir", dst, "-join", strings.Join(dirs, ","))
				if joined.code != 0 {
					t.Fatalf("joined run exited %d:\n%s", joined.code, joined.stderr)
				}
				if joined.stdout != clean.stdout {
					t.Errorf("joined stdout differs from single-process run\n--- joined ---\n%s--- clean ---\n%s",
						joined.stdout, clean.stdout)
				}
				if !strings.Contains(joined.stderr, "0 torn skipped") {
					t.Errorf("join report missing from stderr:\n%s", joined.stderr)
				}
			})
		})
	}
}

// TestFabricJoinMergesPartialRuns: two overlapping partial checkpoint
// stores (one with a torn file) merge into a fresh destination; the joined
// run re-executes only the missing units and prints the exact
// single-process bytes.
func TestFabricJoinMergesPartialRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess join runs")
	}
	clean := runBin(t, "-run", "Figure2", "-scale", "quick", "-workers", "1")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}

	// Partial store A: first 3 of Figure2's 8 units, then one torn in place.
	dirA := t.TempDir()
	if killed := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dirA, "-fault-plan", "kill-after-puts=3"); killed.code != faultinject.KillExitCode {
		t.Fatalf("partial run A exited %d:\n%s", killed.code, killed.stderr)
	}
	filesA := ckpts(t, dirA)
	if len(filesA) != 3 {
		t.Fatalf("partial store A holds %d checkpoints, want 3", len(filesA))
	}
	if err := os.Truncate(filesA[0], 10); err != nil {
		t.Fatal(err)
	}

	// Partial store B: first 6 units — overlapping A.
	dirB := t.TempDir()
	if killed := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dirB, "-fault-plan", "kill-after-puts=6"); killed.code != faultinject.KillExitCode {
		t.Fatalf("partial run B exited %d:\n%s", killed.code, killed.stderr)
	}

	dst := t.TempDir()
	joined := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dst, "-join", dirA+","+dirB)
	if joined.code != 0 {
		t.Fatalf("joined run exited %d:\n%s", joined.code, joined.stderr)
	}
	if joined.stdout != clean.stdout {
		t.Errorf("joined stdout differs from single-process run\n--- joined ---\n%s--- clean ---\n%s",
			joined.stdout, clean.stdout)
	}
	if !strings.Contains(joined.stderr, "torn skipped") {
		t.Errorf("join report missing from stderr:\n%s", joined.stderr)
	}
	if n := len(ckpts(t, dst)); n != 8 {
		t.Errorf("joined store holds %d checkpoints, want all 8", n)
	}
}

// TestFabricUsageErrors pins exit code 2 for -units misuse and for
// lease-protocol flags this binary does not define.
func TestFabricUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess runs")
	}
	dir := filepath.Join(t.TempDir(), "store")
	for _, args := range [][]string{
		{"-run", "Figure2", "-checkpoint-dir", dir, "-units", "4/4"},
		{"-run", "Figure2", "-checkpoint-dir", dir, "-units", "0/0"},
		{"-run", "Figure2", "-checkpoint-dir", dir, "-units", "-1/4"},
		{"-run", "Figure2", "-checkpoint-dir", dir, "-units", "a/b"},
		{"-run", "Figure2", "-checkpoint-dir", dir, "-units", "1"},
		{"-run", "Figure2", "-units", "0/4"},                               // no store to flush to
		{"-checkpoint-dir", dir, "-units", "0/4"},                          // -run all
		{"-run", "Figure5", "-checkpoint-dir", dir, "-units", "0/4"},       // non-resumable
		{"-join", t.TempDir()},                                             // -join needs a destination
		{"-role", "worker", "-fabric-dir", t.TempDir(), "-run", "Figure2"}, // flags this binary does not define
	} {
		res := runBin(t, args...)
		if res.code != 2 {
			t.Errorf("%v exited %d, want 2", args, res.code)
		}
		if res.stdout != "" {
			t.Errorf("%v printed to stdout:\n%s", args, res.stdout)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a usage error created the checkpoint dir (stat: %v)", err)
	}
}
