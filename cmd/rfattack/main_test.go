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

// bin is the rfattack binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) { os.Exit(runTests(m)) }

// runTests builds the binary into a temporary directory, runs the tests,
// and removes the directory again.
func runTests(m *testing.M) int {
	dir, err := os.MkdirTemp("", "rfattack-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	bin = filepath.Join(dir, "rfattack")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building rfattack: %v\n%s", err, out)
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

// TestUsageErrors: inputs that used to spin forever (-batch 0) or panic
// (-l1kind bogus) exit 2 with one line on stderr and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-batch", "0"},
		{"-batch", "-4000"},
		{"-l1kind", "bogus"},
		{"-attack", "flushreload", "-l1kind", "bogus"},
		{"-attack", "bogus"},
		{"-window", "16"},
	} {
		stdout, stderr, code := run(t, args...)
		if code != 2 {
			t.Errorf("%v exited %d, want 2:\n%s", args, code, stderr)
		}
		if stdout != "" {
			t.Errorf("%v printed to stdout:\n%s", args, stdout)
		}
		if lines := strings.Count(stderr, "\n"); lines != 1 || !strings.HasPrefix(stderr, "rfattack: ") {
			t.Errorf("%v stderr is not one rfattack line:\n%s", args, stderr)
		}
	}
}

// TestSeedReproducible: the same -seed gives byte-identical stdout, and a
// different seed a different run.
func TestSeedReproducible(t *testing.T) {
	for _, args := range [][]string{
		{"-attack", "collision", "-samples", "3000", "-batch", "1000"},
		{"-attack", "flushreload", "-samples", "2000", "-window", "16,15"},
		{"-attack", "modexp"},
	} {
		a, _, codeA := run(t, append(args, "-seed", "5")...)
		b, _, codeB := run(t, append(args, "-seed", "5")...)
		c, _, codeC := run(t, append(args, "-seed", "6")...)
		if codeA != 0 || codeB != 0 || codeC != 0 {
			t.Fatalf("%v exited %d/%d/%d", args, codeA, codeB, codeC)
		}
		if a == "" || a != b {
			t.Errorf("%v: same seed, different stdout\n--- first ---\n%s--- second ---\n%s", args, a, b)
		}
		if a == c {
			t.Errorf("%v: seeds 5 and 6 printed the same stdout:\n%s", args, a)
		}
	}
}
