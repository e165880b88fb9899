package core

import (
	"repro/internal/stats"
)

// Obstruction summarizes a Hall-violator certificate in the paper's
// vocabulary: a request multiset X of size Requests touching
// DistinctStripes stripes whose server set B(X) has only Slots upload
// slots — fewer than the |X| slots the requests need (Lemma 1).
type Obstruction struct {
	Round           int
	Requests        int   // |X| (the i of Lemma 4)
	DistinctStripes int   // i1 of Lemma 4
	Boxes           int   // |B(X)|
	Slots           int64 // U_B(X) in slots (< Requests)
}

// RoundStats is one round of the optional trace.
type RoundStats struct {
	Round       int
	ActiveReqs  int
	Matched     int
	Unmatched   int
	Viewers     int
	ActiveSwarm int
	MaxSwarm    int
	Utilization float64
}

// runMetrics accumulates during a run.
type runMetrics struct {
	demands           int64
	admitted          int64
	rejectedBusy      int64
	rejectedSwarm     int64
	stalls            int64
	completedViewings int64
	failRound         int
	peakRequests      int
	obstructions      []Obstruction
	startupHist       []int64 // [d] = admitted demands that waited d rounds to start
	utilSum           float64
	utilRounds        int64
	maxSwarmEver      int
	trace             []RoundStats

	// Request-mix accounting (validates the strategies' shapes).
	preloadReqs   int64 // preload requests issued
	postponedReqs int64 // postponed requests issued directly by the viewer
	relayedReqs   int64 // requests issued by a relay on a poor box's behalf
	skippedSelf   int64 // stripes skipped because the viewer already had them
}

func (m *runMetrics) init(n int) {
	m.failRound = -1
}

// recordStartup counts one admitted demand's start-up delay. The histogram
// is as long as the largest delay seen, and because every admitOK records
// exactly one delay its counts sum to admitted (decode holds it to that).
func (m *runMetrics) recordStartup(delay int) {
	if delay >= len(m.startupHist) {
		m.startupHist = append(m.startupHist, make([]int64, delay+1-len(m.startupHist))...)
	}
	m.startupHist[delay]++
}

func (m *runMetrics) observeRound(s *System, res StepResult) {
	total := s.TotalSlots()
	util := 0.0
	if total > 0 {
		util = float64(res.Matched) / float64(total)
	}
	m.utilSum += util
	m.utilRounds++
	// Sizes only grow on swarm entry, so the tracker's running peak equals
	// the max over rounds of the end-of-round MaxSize sweep it replaces.
	if ms := s.tracker.MaxSizeEver(); ms > m.maxSwarmEver {
		m.maxSwarmEver = ms
	}
	if s.cfg.TraceRounds {
		m.trace = append(m.trace, RoundStats{
			Round:       res.Round,
			ActiveReqs:  s.matcher.ActiveCount(),
			Matched:     res.Matched,
			Unmatched:   res.Unmatched,
			Viewers:     s.tracker.TotalViewers(),
			ActiveSwarm: s.tracker.ActiveSwarms(),
			MaxSwarm:    s.tracker.MaxSize(),
			Utilization: util,
		})
	}
}

// Report aggregates a simulation run.
type Report struct {
	Rounds            int
	Failed            bool
	FailRound         int // -1 when the run never failed
	Obstructions      []Obstruction
	Stalls            int64 // unmatched request-rounds (FailStall mode)
	Demands           int64
	Admitted          int64
	RejectedBusy      int64
	RejectedSwarm     int64
	CompletedViewings int64
	PeakRequests      int
	MaxSwarm          int
	StartupDelay      stats.Summary
	MeanUtilization   float64
	Trace             []RoundStats

	// Request mix: how viewings decomposed into request kinds.
	PreloadRequests   int64
	PostponedRequests int64
	RelayedRequests   int64
	SkippedSelfServed int64
}

// Report snapshots the metrics accumulated so far.
func (s *System) Report() Report {
	m := &s.metrics
	util := 0.0
	if m.utilRounds > 0 {
		util = m.utilSum / float64(m.utilRounds)
	}
	return Report{
		Rounds:            s.round,
		Failed:            s.failed,
		FailRound:         m.failRound,
		Obstructions:      append([]Obstruction(nil), m.obstructions...),
		Stalls:            m.stalls,
		Demands:           m.demands,
		Admitted:          m.admitted,
		RejectedBusy:      m.rejectedBusy,
		RejectedSwarm:     m.rejectedSwarm,
		CompletedViewings: m.completedViewings,
		PeakRequests:      m.peakRequests,
		MaxSwarm:          m.maxSwarmEver,
		StartupDelay:      stats.SummarizeCounts(m.startupHist),
		MeanUtilization:   util,
		Trace:             append([]RoundStats(nil), m.trace...),
		PreloadRequests:   m.preloadReqs,
		PostponedRequests: m.postponedReqs,
		RelayedRequests:   m.relayedReqs,
		SkippedSelfServed: m.skippedSelf,
	}
}
