// Package faultinject is the deterministic fault harness behind the
// crash-resume and static-partition subprocess suites. A Plan is parsed from a compact spec string and
// hooks into the checkpoint store (checkpoint.Hooks), firing each fault at
// an exactly reproducible point in the run — the Nth checkpoint write —
// rather than at a wall-clock instant, so a "crash mid-run" is the same
// crash on every machine:
//
//	kill-after-puts=3            exit(137) after the 3rd successful Put,
//	                             simulating SIGKILL/OOM mid-run
//	fail-put=2                   the 2nd Put returns an injected error
//	torn-put=2                   truncate the 2nd checkpoint file in place,
//	                             simulating a torn write
//	corrupt-put=2                flip one seed-chosen bit of the 2nd file
//	delay-put=2:250ms            sleep before publishing the 2nd Put, to
//	                             push a shard past a -timeout deadline
//	seed=7                       drives the corrupt-put bit choice
//
// Clauses combine with commas: "torn-put=1,kill-after-puts=2". Counters are
// 1-based and count Puts process-wide in completion order; because the
// parallel engine's shard plan is fixed, "the 3rd completed shard" is a
// meaningful, reproducible event even though which shard completes 3rd may
// vary with scheduling.
//
// cmd/experiments exposes the spec via its -fault-plan flag (testing only).
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"randfill/internal/checkpoint"
	"randfill/internal/rng"
)

// KillExitCode is the exit status of a kill-after-puts fault, chosen to
// mimic a SIGKILL death (128+9) so the crash-resume suite can tell an
// injected crash from an ordinary failure.
const KillExitCode = 137

// Plan is a parsed fault plan. The zero value injects nothing.
type Plan struct {
	// KillAfterPuts terminates the process after that many successful
	// checkpoint writes (0 = never).
	KillAfterPuts int
	// FailPut makes the Nth Put return an error (0 = never).
	FailPut int
	// TornPut truncates the Nth checkpoint file after it is published,
	// leaving a torn frame on disk (0 = never).
	TornPut int
	// CorruptPut flips one bit of the Nth checkpoint file after it is
	// published (0 = never).
	CorruptPut int
	// DelayPut sleeps for Delay before the Nth Put publishes (0 = never).
	DelayPut int
	// Delay is the delay-put duration.
	Delay time.Duration
	// Seed drives the corrupt-put bit choice.
	Seed uint64

	puts atomic.Int64
	// exit is swapped out by tests; os.Exit in production.
	exit func(code int)
}

var _ checkpoint.Hooks = (*Plan)(nil)

// Parse builds a Plan from a spec string (see the package doc). An empty
// spec returns nil: no plan, no hooks.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1, exit: os.Exit}
	for _, clause := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q: want key=value", clause)
		}
		switch key {
		case "kill-after-puts", "fail-put", "torn-put", "corrupt-put", "seed":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultinject: %s=%q: want a non-negative integer", key, val)
			}
			switch key {
			case "kill-after-puts":
				p.KillAfterPuts = n
			case "fail-put":
				p.FailPut = n
			case "torn-put":
				p.TornPut = n
			case "corrupt-put":
				p.CorruptPut = n
			case "seed":
				p.Seed = uint64(n)
			}
		case "delay-put":
			nth, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faultinject: delay-put=%q: want N:duration", val)
			}
			n, err := strconv.Atoi(nth)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultinject: delay-put=%q: bad put index", val)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil {
				return nil, fmt.Errorf("faultinject: delay-put=%q: %v", val, err)
			}
			p.DelayPut, p.Delay = n, d
		default:
			return nil, fmt.Errorf("faultinject: unknown fault %q", key)
		}
	}
	return p, nil
}

// BeforePut implements checkpoint.Hooks: the fail-put and delay-put faults.
func (p *Plan) BeforePut(m checkpoint.Meta) error {
	n := int(p.puts.Load()) + 1 // the Put now in progress
	if p.DelayPut == n && p.Delay > 0 {
		time.Sleep(p.Delay)
	}
	if p.FailPut == n {
		p.puts.Add(1) // the failed attempt still advances the counter
		return fmt.Errorf("faultinject: injected write failure at put %d (%s shard %d)",
			n, m.Experiment, m.Shard)
	}
	return nil
}

// AfterPut implements checkpoint.Hooks: the torn-put, corrupt-put, and
// kill-after-puts faults, in that order — a plan may tear a file and then
// kill the process, the exact shape of a crash during a write burst.
func (p *Plan) AfterPut(m checkpoint.Meta, path string) {
	n := int(p.puts.Add(1))
	if p.TornPut == n {
		p.tear(path)
	}
	if p.CorruptPut == n {
		p.corrupt(path)
	}
	if p.KillAfterPuts > 0 && n >= p.KillAfterPuts {
		fmt.Fprintf(os.Stderr, "faultinject: killing process after %d checkpoint puts\n", n)
		p.exit(KillExitCode)
	}
}

// Puts returns the number of Put attempts observed so far.
func (p *Plan) Puts() int { return int(p.puts.Load()) }

// tear truncates the published checkpoint to half its size, the on-disk
// shape of a write interrupted between temp-file creation and completion
// on a filesystem without atomic rename (or of a buggy writer).
func (p *Plan) tear(path string) {
	st, err := os.Stat(path)
	if err != nil {
		return
	}
	//lint:ignore errcheck-io deliberate damage: the fault is best-effort by design
	os.Truncate(path, st.Size()/2)
}

// corrupt flips one bit at a Seed-chosen offset, simulating media
// corruption that leaves the file length intact.
func (p *Plan) corrupt(path string) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return
	}
	src := rng.New(p.Seed ^ 0xfa017)
	data[src.Intn(len(data))] ^= 1 << src.Intn(8)
	// Deliberately a direct, non-atomic write: the point is to damage the
	// file the way a real fault would.
	//lint:ignore atomicwrite deliberate corruption injection; atomicity would defeat the fault
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return
	}
}
