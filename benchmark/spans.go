package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the harness's own
// files. parent is the index of the span that caused it (-1 for a root);
// round is the engine round it belongs to (0 outside the round loop).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Round   int32  `json:"round"`
}

// maxSpans bounds the preallocated buffer; wire-ops, the busiest workload,
// records ~30 spans per round for a few thousand rounds.
const maxSpans = 1 << 20

// spans is the in-memory span buffer of a traced run. A nil *spans is the
// untraced run: every method is then a no-op, so the timed code is the same
// in both runs. The mutex is for the hosted handler goroutine, which
// records beside the (blocked) client; it is never contended.
type spans struct {
	mu      sync.Mutex
	buf     []span
	dropped int
	epoch   time.Time
	// client is the open client-side request span and round its engine
	// round: the parent and round of whatever the hosted handler records
	// while serving it.
	client atomic.Int32
	round  atomic.Int32
}

func newSpans() *spans {
	s := &spans{buf: make([]span, 0, maxSpans), epoch: time.Now()}
	s.client.Store(-1)
	return s
}

func (s *spans) now() int64 { return int64(time.Since(s.epoch)) }

// begin opens a span and returns its index (-1 when untraced or full).
func (s *spans) begin(name string, parent int32, round int) int32 {
	if s == nil {
		return -1
	}
	return s.add(name, s.now(), 0, parent, round)
}

// end closes the span begin returned.
func (s *spans) end(id int32) {
	if s == nil || id < 0 {
		return
	}
	t := s.now()
	s.mu.Lock()
	s.buf[id].EndNS = t
	s.mu.Unlock()
}

// add records a span whose bounds the caller measured itself.
func (s *spans) add(name string, start, end int64, parent int32, round int) int32 {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == cap(s.buf) {
		s.dropped++
		return -1
	}
	s.buf = append(s.buf, span{Name: name, StartNS: start, EndNS: end, Parent: parent, Round: int32(round)})
	return int32(len(s.buf) - 1)
}

func (s *spans) count() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// durationsUS returns the durations, in µs, of the spans called name whose
// round lies in [from, to]; from = to = 0 selects spans outside the rounds.
func (s *spans) durationsUS(name string, from, to int) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for i := range s.buf {
		sp := &s.buf[i]
		if sp.Name == name && int(sp.Round) >= from && int(sp.Round) <= to {
			out = append(out, float64(sp.EndNS-sp.StartNS)/1e3)
		}
	}
	return out
}

// perRoundUS sums, per round in [from, to], the durations of the spans
// whose name is in names; index 0 is round from.
func (s *spans) perRoundUS(from, to int, names ...string) []float64 {
	out := make([]float64, to-from+1)
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.buf {
		sp := &s.buf[i]
		if r := int(sp.Round); r >= from && r <= to {
			for _, n := range names {
				if sp.Name == n {
					out[r-from] += float64(sp.EndNS-sp.StartNS) / 1e3
				}
			}
		}
	}
	return out
}

// write stores the spans as one JSON document.
func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{s.dropped, s.buf})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
