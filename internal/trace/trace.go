// Package trace records and replays demand workloads. A Trace is the
// exact sequence of demands a generator produced, round by round, so that
// different system configurations (allocation seeds, strategies, sourcing
// vs. swarming) can be compared on *identical* inputs — the
// controlled-variable discipline behind experiment E9. Traces serialize to
// JSON for archival and to a
// compact CSV for external tooling.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/video"
)

// Event is one demand at one round.
type Event struct {
	Round int      `json:"round"`
	Box   int      `json:"box"`
	Video video.ID `json:"video"`
	Born  int      `json:"born,omitempty"`
}

// Trace is a recorded workload.
type Trace struct {
	// Meta describes how the trace was produced (free-form).
	Meta string `json:"meta,omitempty"`
	// Events holds all demands in round order.
	Events []Event `json:"events"`
}

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Rounds returns the highest round with an event (0 for an empty trace).
// It scans rather than trusting order, so hand-built or concatenated
// traces that have not been normalized report the same value as sorted
// ones.
func (t *Trace) Rounds() int {
	max := 0
	for i := range t.Events {
		if t.Events[i].Round > max {
			max = t.Events[i].Round
		}
	}
	return max
}

// sorted reports whether events are in non-decreasing round order.
func (t *Trace) sorted() bool {
	for i := 1; i < len(t.Events); i++ {
		if t.Events[i].Round < t.Events[i-1].Round {
			return false
		}
	}
	return true
}

// Normalize sorts events by round (stable on insertion order within a
// round, matching generator emission order).
func (t *Trace) Normalize() {
	if !t.sorted() {
		sort.SliceStable(t.Events, func(i, j int) bool {
			return t.Events[i].Round < t.Events[j].Round
		})
	}
}

// Recorder wraps a generator and records everything it emits.
type Recorder struct {
	Inner core.Generator
	Trace Trace
}

// NewRecorder wraps gen.
func NewRecorder(gen core.Generator) *Recorder {
	return &Recorder{Inner: gen}
}

// Next implements core.Generator.
func (r *Recorder) Next(v *core.View, round int) []core.Demand {
	demands := r.Inner.Next(v, round)
	for _, d := range demands {
		r.Trace.Events = append(r.Trace.Events, Event{
			Round: round, Box: d.Box, Video: d.Video, Born: d.Born,
		})
	}
	return demands
}

// Replayer replays a trace as a generator. Demands are emitted at their
// recorded rounds regardless of system state (a busy box or a full swarm
// produces the same rejection the original run would have seen only if
// the state matches; replay across *different* configurations is the
// point, so rejections may differ).
type Replayer struct {
	trace *Trace
	pos   int
}

// NewReplayer builds a generator from a normalized trace.
func NewReplayer(t *Trace) *Replayer {
	t.Normalize()
	return &Replayer{trace: t}
}

// Next implements core.Generator.
func (r *Replayer) Next(_ *core.View, round int) []core.Demand {
	var out []core.Demand
	for r.pos < len(r.trace.Events) && r.trace.Events[r.pos].Round <= round {
		e := r.trace.Events[r.pos]
		if e.Round == round {
			out = append(out, core.Demand{Box: e.Box, Video: e.Video, Born: e.Born})
		}
		// Events for earlier rounds than the replay reached are dropped —
		// the replaying system started later than the recording one.
		r.pos++
	}
	return out
}

// Rewind restarts the replay from the first event.
func (r *Replayer) Rewind() { r.pos = 0 }

// WriteJSON serializes the trace.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// ReadJSON parses a trace written by WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.Normalize()
	return &t, nil
}

// WriteCSV writes "round,box,video,born" lines with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("round,box,video,born\n")
	for _, e := range t.Events {
		b.WriteString(strconv.Itoa(e.Round))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(e.Box))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(int(e.Video)))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(e.Born))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ReadCSV parses the WriteCSV format.
func ReadCSV(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "round,") {
		return nil, fmt.Errorf("trace: missing CSV header")
	}
	t := &Trace{}
	for i, line := range lines[1:] {
		// Tolerate CRLF line endings and interior blank lines (common in
		// hand-edited or re-exported files): a stray "\r" would otherwise
		// fail strconv on the last field, and a blank line would surface as
		// the confusing "has 1 fields".
		line = strings.TrimSuffix(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d has %d fields", i+2, len(fields))
		}
		var e Event
		var vid int
		if e.Round, err = strconv.Atoi(fields[0]); err == nil {
			if e.Box, err = strconv.Atoi(fields[1]); err == nil {
				if vid, err = strconv.Atoi(fields[2]); err == nil {
					e.Born, err = strconv.Atoi(fields[3])
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", i+2, err)
		}
		e.Video = video.ID(vid)
		t.Events = append(t.Events, e)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.Normalize()
	return t, nil
}

// Validate checks structural sanity.
func (t *Trace) Validate() error {
	for i, e := range t.Events {
		if e.Round < 0 || e.Box < 0 || e.Video < 0 {
			return fmt.Errorf("trace: event %d has negative field: %+v", i, e)
		}
	}
	return nil
}

// Stats summarizes a trace.
type Stats struct {
	Events        int
	Rounds        int
	DistinctBoxes int
	DistinctVids  int
	PeakPerRound  int
}

// Summarize computes trace statistics.
func (t *Trace) Summarize() Stats {
	boxes := make(map[int]struct{})
	vids := make(map[video.ID]struct{})
	perRound := make(map[int]int)
	peak := 0
	for _, e := range t.Events {
		boxes[e.Box] = struct{}{}
		vids[e.Video] = struct{}{}
		perRound[e.Round]++
		if perRound[e.Round] > peak {
			peak = perRound[e.Round]
		}
	}
	return Stats{
		Events:        len(t.Events),
		Rounds:        t.Rounds(),
		DistinctBoxes: len(boxes),
		DistinctVids:  len(vids),
		PeakPerRound:  peak,
	}
}
