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

	"randfill/internal/traceio"
)

// bin is the rftrace binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) { os.Exit(runTests(m)) }

// runTests builds the binary into a temporary directory, runs the tests,
// and removes the directory again.
func runTests(m *testing.M) int {
	dir, err := os.MkdirTemp("", "rftrace-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	bin = filepath.Join(dir, "rftrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building rftrace: %v\n%s", err, out)
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

// TestGenRoundTrip: a generated trace file reads back through info and dump
// as exactly the trace gen built.
func TestGenRoundTrip(t *testing.T) {
	for _, c := range []struct {
		workload string
		n, bytes int
	}{
		{"libquantum", 2000, 0},
		{"aes", 0, 256},
	} {
		t.Run(c.workload, func(t *testing.T) {
			want, err := buildTrace(c.workload, c.n, c.bytes, 3)
			if err != nil {
				t.Fatal(err)
			}
			file := filepath.Join(t.TempDir(), "x.trace")
			stdout, stderr, code := run(t, "gen", "-workload", c.workload,
				"-n", fmt.Sprint(c.n), "-bytes", fmt.Sprint(c.bytes), "-seed", "3", "-o", file)
			if code != 0 {
				t.Fatalf("gen exited %d:\n%s", code, stderr)
			}
			if !strings.HasPrefix(stdout, fmt.Sprintf("wrote %d accesses", len(want))) {
				t.Errorf("gen output %q does not report %d accesses", stdout, len(want))
			}

			stdout, stderr, code = run(t, "info", file)
			if code != 0 {
				t.Fatalf("info exited %d:\n%s", code, stderr)
			}
			if exp := fmt.Sprintln(traceio.Summarize(want)); stdout != exp {
				t.Errorf("info = %q, want %q", stdout, exp)
			}

			stdout, stderr, code = run(t, "dump", "-n", "0", file)
			if code != 0 {
				t.Fatalf("dump exited %d:\n%s", code, stderr)
			}
			var exp bytes.Buffer
			if err := traceio.DumpText(&exp, want, 0); err != nil {
				t.Fatal(err)
			}
			if stdout != exp.String() {
				t.Errorf("dump -n 0 differs from the generated trace (%d vs %d bytes)", len(stdout), exp.Len())
			}
			stdout, _, _ = run(t, "dump", "-n", "5", file)
			if got := strings.Count(stdout, "\n"); got != 5 {
				t.Errorf("dump -n 5 printed %d lines", got)
			}
		})
	}
}

// TestUsageExits2: a missing or unknown subcommand, and gen without -o, are
// usage errors: exit 2, nothing on stdout, the usage text on stderr.
func TestUsageExits2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"gen", "-workload", "libquantum", "-n", "10"},
		{"info"},
	} {
		stdout, stderr, code := run(t, args...)
		if code != 2 {
			t.Errorf("%v exited %d, want 2:\n%s", args, code, stderr)
		}
		if stdout != "" {
			t.Errorf("%v printed to stdout:\n%s", args, stdout)
		}
		if !strings.Contains(stderr, "usage:") {
			t.Errorf("%v stderr lacks the usage text:\n%s", args, stderr)
		}
	}
}
