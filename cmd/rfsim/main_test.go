package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the rfsim binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) { os.Exit(runTests(m)) }

// runTests builds the binary into a temporary directory, runs the tests,
// and removes the directory again.
func runTests(m *testing.M) int {
	dir, err := os.MkdirTemp("", "rfsim-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	bin = filepath.Join(dir, "rfsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building rfsim: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// run executes the binary and returns stdout, stderr and the exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return out.String(), errb.String(), 0
	case errors.As(err, &ee):
		return out.String(), errb.String(), ee.ExitCode()
	default:
		t.Fatalf("running %v: %v", args, err)
		return "", "", 0
	}
}

// TestBadGeometryExits2: cache shapes that used to panic inside sim.New
// exit 2 with one line on stderr and nothing on stdout.
func TestBadGeometryExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-ways", "0"},
		{"-l1", "1000"},
		{"-l1", "98304"}, // 384 sets: not a power of two
		{"-l3", "1000"},
		{"-l3", "1048576", "-l3ways", "3"},
	} {
		args = append(args, "-workload", "sjeng", "-n", "1000")
		stdout, stderr, code := run(t, args...)
		if code != 2 {
			t.Errorf("%v exited %d, want 2:\n%s", args, code, stderr)
		}
		if stdout != "" {
			t.Errorf("%v printed to stdout:\n%s", args, stdout)
		}
		if lines := strings.Count(stderr, "\n"); lines != 1 || !strings.HasPrefix(stderr, "rfsim: ") {
			t.Errorf("%v stderr is not one rfsim line:\n%s", args, stderr)
		}
	}
}

// TestMissQueueOutOfRangeExits2: a miss queue outside 1..sim.MaxMissQueue
// entries is a usage error (one stderr line naming the flag, exit 2), not
// a panic inside sim.New.
func TestMissQueueOutOfRangeExits2(t *testing.T) {
	for _, n := range []string{"-1", "0", "65"} {
		stdout, stderr, code := run(t, "-mshrs", n, "-workload", "sjeng", "-n", "1000")
		if code != 2 {
			t.Errorf("-mshrs %s exited %d, want 2:\n%s", n, code, stderr)
		}
		if stdout != "" {
			t.Errorf("-mshrs %s printed to stdout:\n%s", n, stdout)
		}
		if lines := strings.Count(stderr, "\n"); lines != 1 || !strings.HasPrefix(stderr, "rfsim: -mshrs "+n+": miss queue entries must be 1..64") {
			t.Errorf("-mshrs %s stderr is not the one usage line:\n%s", n, stderr)
		}
	}
}

// TestSmallRun pins a few stdout lines of one small demand-fetch run.
func TestSmallRun(t *testing.T) {
	stdout, stderr, code := run(t, "-workload", "sjeng", "-n", "20000", "-seed", "1")
	if code != 0 {
		t.Fatalf("exited %d:\n%s", code, stderr)
	}
	for _, want := range []string{
		"workload:       sjeng (20000 accesses, 219960 instructions)\n",
		"L1:             32KB 4-way sa, window [-0,+0], mode demand\n",
		"hits/misses:    15290 / 4701 (+9 merged)\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}
