package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"randfill/internal/atomicio"
	"randfill/internal/checkpoint"
)

// span is one timed interval of the traced run. Times are nanoseconds since
// the recorder started; Parent is 0 for the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Run     string `json:"run"`
}

// spans keeps the traced run's spans in memory until write. It is safe for
// concurrent use: Scale.Track reports units from the experiment's workers.
type spans struct {
	mu   sync.Mutex
	run  string
	t0   time.Time
	list []span
	// units maps an executing unit to its open span; exp is the open
	// experiment span units nest under.
	units map[checkpoint.Meta]int
	exp   int
}

func newSpans(run string) *spans {
	return &spans{run: run, t0: now(), units: map[checkpoint.Meta]int{}}
}

// begin opens a span under parent and returns its id.
func (s *spans) begin(name string, parent int) int {
	t := now().Sub(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, StartNS: t, EndNS: -1, Run: s.run})
	return id
}

// end closes span id.
func (s *spans) end(id int) {
	t := now().Sub(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list[id-1].EndNS = t
}

// within runs f inside a span named name under parent.
func (s *spans) within(name string, parent int, f func(id int) error) error {
	id := s.begin(name, parent)
	defer s.end(id)
	return f(id)
}

// setExperiment makes id the parent of the units track reports next.
func (s *spans) setExperiment(id int) {
	s.mu.Lock()
	s.exp = id
	s.mu.Unlock()
}

// track is a Scale.Track hook: it opens a unit span when a unit starts and
// closes it once the unit is durably done.
func (s *spans) track(m checkpoint.Meta, done bool) {
	if !done {
		s.mu.Lock()
		parent := s.exp
		s.mu.Unlock()
		id := s.begin(fmt.Sprintf("unit %s/%d", m.Experiment, m.Shard), parent)
		s.mu.Lock()
		s.units[m] = id
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	id, ok := s.units[m]
	delete(s.units, m)
	s.mu.Unlock()
	if ok {
		s.end(id)
	}
}

// durations returns the lengths, in seconds, of the closed spans under
// parent whose names start with prefix.
func (s *spans) durations(parent int, prefix string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.list {
		if sp.Parent == parent && sp.EndNS >= 0 && strings.HasPrefix(sp.Name, prefix) {
			out = append(out, float64(sp.EndNS-sp.StartNS)/1e9)
		}
	}
	return out
}

// children returns the ids of the spans directly under parent.
func (s *spans) children(parent int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for _, sp := range s.list {
		if sp.Parent == parent {
			out = append(out, sp.ID)
		}
	}
	return out
}

// write saves every span as one JSON array.
func (s *spans) write(path string) error {
	s.mu.Lock()
	data, err := json.MarshalIndent(s.list, "", " ")
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(data, '\n'), 0o644)
}
