package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// referenceJSON holds the SHA-256 digests of the default seed's outputs,
// recorded at the commit that introduced this benchmark: each workload's
// rendered tables and the simulated counters its layer drive reads.
//
//go:embed expected.json
var referenceJSON []byte

type reference struct {
	Seed     uint64            `json:"seed"`
	Tables   map[string]string `json:"tables_sha256"`
	Counters map[string]string `json:"counters_sha256"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("expected.json: %w", err)
	}
	return ref, nil
}

// checker validates outputs: on the reference seed against the recorded
// digest, on every other seed against the run's first output.
type checker struct {
	what  string
	want  string // hex digest; empty until the first output on other seeds
	fixed bool   // want comes from expected.json
	first []byte
}

// newChecker returns the checker for workload name's output of kind
// ("tables" or "counters") under seed.
func newChecker(name, kind string, seed uint64) (*checker, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	c := &checker{what: name + " " + kind}
	if seed != ref.Seed {
		return c, nil
	}
	m := ref.Tables
	if kind == "counters" {
		m = ref.Counters
	}
	c.want, c.fixed = m[name], true
	return c, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check returns an error if out differs from the reference.
func (c *checker) check(out []byte) error {
	got := digest(out)
	switch {
	case c.fixed && c.want == "":
		return fmt.Errorf("%s: no reference digest recorded (got %s)", c.what, got)
	case c.fixed && got != c.want:
		return fmt.Errorf("%s: sha256 %s, want %s", c.what, got, c.want)
	case c.fixed:
		return nil
	case c.first == nil:
		c.first, c.want = append([]byte(nil), out...), got
		return nil
	case !bytes.Equal(out, c.first):
		return fmt.Errorf("%s: output differs from the run's first (sha256 %s, first %s)", c.what, got, c.want)
	}
	return nil
}

func (c *checker) describe() string {
	if c.fixed {
		return fmt.Sprintf("%s match the recorded sha256 %s", c.what, c.want)
	}
	return fmt.Sprintf("%s identical across passes, sha256 %s", c.what, c.want)
}

// metricsJSON lists the per-layer metrics the traced run reports, with
// their units and the end-to-end metric and workload each should move,
// plus the fingerprint of the host the benchmark was defined on.
//
//go:embed metrics.json
var metricsJSON []byte

type metricSpec struct {
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
		Moves  string `json:"moves"`
	} `json:"per_layer"`
}

func loadMetricSpec() (metricSpec, error) {
	var spec metricSpec
	if err := json.Unmarshal(metricsJSON, &spec); err != nil {
		return spec, fmt.Errorf("metrics.json: %w", err)
	}
	return spec, nil
}
