// Package experiments implements the reproduction harness: one runner per
// experiment (E1–E11, E13, E14, T1), each regenerating a table or figure
// series that validates a specific claim of the paper, and each pinned by a
// shape test in experiments_test.go. The vodbench binary and the root-level
// benchmarks both drive this package.
package experiments

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/report"
)

// Options tunes an experiment run.
type Options struct {
	// Seed derives every random choice in the experiment; two runs with
	// equal Options produce identical output.
	Seed uint64
	// Quick shrinks population sizes, round counts, and Monte-Carlo trial
	// counts so the whole suite runs in seconds (used by tests and CI).
	Quick bool
	// Workers bounds the Monte-Carlo worker pool — how many *independent
	// trials* run concurrently; 0 means GOMAXPROCS.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// pick returns quick during -short style runs and full otherwise.
func pick[T any](o Options, quick, full T) T {
	if o.Quick {
		return quick
	}
	return full
}

// Result is an experiment's rendered output.
type Result struct {
	ID      string
	Name    string
	Claim   string // the paper claim being validated
	Tables  []*report.Table
	Figures []*report.Figure
}

// Text renders the full result as aligned text.
func (r Result) Text() string {
	out := fmt.Sprintf("###### %s — %s\n       claim: %s\n\n", r.ID, r.Name, r.Claim)
	for _, t := range r.Tables {
		out += t.Text() + "\n"
	}
	for _, f := range r.Figures {
		out += f.Table().Text() + "\n"
	}
	return out
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Name  string
	Claim string
	Run   func(Options) Result
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate ID " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every registered experiment ordered by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i].ID) < key(out[j].ID) })
	return out
}

// key orders E1..E14 numerically, then T1.
func key(id string) string {
	if len(id) >= 2 && (id[0] == 'E' || id[0] == 'T') && len(id) == 2 {
		return string(id[0]) + "0" + id[1:]
	}
	return id
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return e, nil
}
