package main

import (
	"context"
	"fmt"
	"time"

	vod "repro"
)

// --- fingerprints ---

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvU64 folds the eight bytes of v into the FNV-1a state h.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// hashStep fingerprints one StepResult, every field.
func hashStep(r vod.StepResult) uint64 {
	h := uint64(fnvOffset)
	for _, v := range [...]int{r.Round, r.Demanded, r.Admitted, r.RejectedBusy, r.RejectedSwarm, r.Matched, r.Unmatched} {
		h = fnvU64(h, uint64(v))
	}
	if o := r.Obstruction; o != nil {
		for _, v := range [...]int64{1, int64(o.Round), int64(o.Requests), int64(o.DistinctStripes), int64(o.Boxes), o.Slots} {
			h = fnvU64(h, uint64(v))
		}
	}
	return h
}

// fingerprint chains the per-round hashes of a run into one value.
func fingerprint(results []vod.StepResult) uint64 {
	h := uint64(fnvOffset)
	for _, r := range results {
		h = fnvU64(h, hashStep(r))
	}
	return h
}

// firstDifference is the first round (1-based) at which two runs disagree,
// or 0 when they agree on their common prefix.
func firstDifference(a, b []vod.StepResult) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if hashStep(a[i]) != hashStep(b[i]) {
			return i + 1
		}
	}
	return 0
}

// unsoundRounds counts the rounds whose admission arithmetic does not add
// up: every demand is admitted or rejected.
func unsoundRounds(results []vod.StepResult) int {
	n := 0
	for _, r := range results {
		if r.Demanded != r.Admitted+r.RejectedBusy+r.RejectedSwarm {
			n++
		}
	}
	return n
}

// counters are the Report fields compared between a run and its reference.
type counters struct {
	Rounds, PeakRequests, MaxSwarm, Obstructions                              int
	Demands, Admitted, RejectedBusy, RejectedSwarm, CompletedViewings, Stalls int64
}

func reportCounters(r vod.Report) counters {
	return counters{
		Rounds: r.Rounds, PeakRequests: r.PeakRequests, MaxSwarm: r.MaxSwarm, Obstructions: len(r.Obstructions),
		Demands: r.Demands, Admitted: r.Admitted, RejectedBusy: r.RejectedBusy, RejectedSwarm: r.RejectedSwarm,
		CompletedViewings: r.CompletedViewings, Stalls: r.Stalls,
	}
}

// --- the in-process leg ---

// timedGen wraps a generator to time the call into it from outside: the
// engine's work before admission ends where Next is entered, and its work
// after admission begins where Next returns.
type timedGen struct {
	inner       vod.Generator
	sp          *spans
	enter, exit int64
}

func (g *timedGen) Next(v *vod.View, round int) []vod.Demand {
	g.enter = g.sp.now()
	ds := g.inner.Next(v, round)
	g.exit = g.sp.now()
	return ds
}

// engineRun is one in-process system stepped by one goroutine. Per-round
// buffers are preallocated so stepping adds no allocation of its own.
type engineRun struct {
	sys *vod.System
	raw vod.Generator // the workload's generator
	gen vod.Generator // what Step is given: raw, or raw behind the timing wrapper
	sp  *spans        // nil when untraced
	tg  *timedGen     // non-nil when traced

	latNS   []int64          // Step latency per round
	results []vod.StepResult // per round
	live    []int32          // live requests after each round
	stageUS [][2]float64     // sharded stage clock per round (parallel, serial tail); traced only
}

func newEngineRun(sys *vod.System, gen vod.Generator, sp *spans, capacity int) *engineRun {
	r := &engineRun{
		sys: sys, raw: gen, gen: gen, sp: sp,
		latNS:   make([]int64, 0, capacity),
		results: make([]vod.StepResult, 0, capacity),
		live:    make([]int32, 0, capacity),
	}
	if sp != nil {
		r.tg = &timedGen{inner: gen, sp: sp}
		r.gen = r.tg
		r.stageUS = make([][2]float64, 0, capacity)
	}
	return r
}

func (r *engineRun) rounds() int { return len(r.results) }

// step runs n rounds (fewer if the buffers fill up first).
func (r *engineRun) step(ctx context.Context, n int) error {
	view := r.sys.View()
	for done := 0; done < n && len(r.results) < cap(r.results); done++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		var s0 int64
		if r.sp != nil {
			s0 = r.sp.now()
			r.tg.enter, r.tg.exit = 0, 0
		}
		res, err := r.sys.Step(r.gen)
		lat := time.Since(t0)
		if err != nil {
			return &sutError{fmt.Errorf("Step, round %d: %w", len(r.results)+1, err)}
		}
		if r.sp != nil {
			s1 := s0 + int64(lat)
			id := r.sp.add("core.step", s0, s1, -1, res.Round)
			if enter, exit := r.tg.enter, r.tg.exit; enter != 0 {
				r.sp.add("core.pre_admit", s0, enter, id, res.Round)
				r.sp.add("generator", enter, exit, id, res.Round)
				r.sp.add("core.post_admit", exit, s1, id, res.Round)
			}
			st := r.sys.StageTiming()
			r.stageUS = append(r.stageUS, [2]float64{float64(st.ParallelNS) / 1e3, float64(st.SerialNS) / 1e3})
		}
		r.latNS = append(r.latNS, int64(lat))
		r.results = append(r.results, res)
		r.live = append(r.live, int32(view.ActiveRequests()))
	}
	return nil
}

// sutError is a failure of the system under test (a Step error, a non-200
// reply, a timeout), as opposed to one of the harness or its environment:
// the run still prints a result, with the failure counted.
type sutError struct{ err error }

func (e *sutError) Error() string { return e.err.Error() }
func (e *sutError) Unwrap() error { return e.err }
