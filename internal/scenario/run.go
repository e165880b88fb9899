package scenario

import (
	"fmt"
	"hash/fnv"
	"strings"

	vod "repro"
	"repro/internal/trace"
)

// RunOptions configures an end-to-end scenario run.
type RunOptions struct {
	// Seed overrides the spec's default seed (0 = use the spec's).
	Seed uint64
}

// Result is one scenario run: the expanded corpus plus the engine report
// obtained by replaying it.
type Result struct {
	Expanded   *Expanded
	CorpusHash string
	Report     vod.Report
}

// Run expands the spec and replays the corpus through a fresh engine.
func Run(s *Spec, opt RunOptions) (*Result, error) {
	ex, err := Expand(s, opt.Seed)
	if err != nil {
		return nil, err
	}
	sys, err := vod.New(ex.VodSpec)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	rep, err := sys.Run(trace.NewReplayer(ex.Trace), s.TotalRounds())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return &Result{Expanded: ex, CorpusHash: CorpusHash(ex.Trace), Report: rep}, nil
}

// CorpusHash fingerprints a corpus: FNV-1a 64 over its CSV serialization,
// rendered as "fnv1a:%016x". Byte-identity claims in tests and CI compare
// this hash.
func CorpusHash(t *trace.Trace) string {
	h := fnv.New64a()
	if err := t.WriteCSV(h); err != nil {
		// Hash writers never fail; keep the signature churn-free.
		panic(err)
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// GoldenSummary renders the run as the stable text format pinned by the
// committed golden files. Every line is deterministic: corpus generation
// never consults the engine, and every engine quantity reported here
// (admission counters, canonicalized stalls, Dulmage–Mendelsohn-invariant
// obstruction counts, utilization, startup delays) is a function of the
// corpus alone.
func (r *Result) GoldenSummary() string {
	ex := r.Expanded
	st := ex.Trace.Summarize()
	rep := r.Report
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s (spec v%d)\n", ex.Spec.Name, Version)
	fmt.Fprintf(&b, "seed: %d\n", ex.Seed)
	fmt.Fprintf(&b, "phases: %s\n", strings.Join(ex.Spec.PhaseNames(), ", "))
	fmt.Fprintf(&b, "system: boxes=%d videos=%d stripes=%d duration=%d growth=%v\n",
		ex.VodSpec.Boxes, ex.Catalog.M, ex.Catalog.C, ex.Catalog.T, ex.VodSpec.Growth)
	fmt.Fprintf(&b, "corpus: events=%d rounds=%d boxes=%d videos=%d peak-round=%d dropped=%d\n",
		st.Events, st.Rounds, st.DistinctBoxes, st.DistinctVids, st.PeakPerRound, ex.Dropped)
	fmt.Fprintf(&b, "corpus-hash: %s\n", r.CorpusHash)
	fmt.Fprintf(&b, "admission: demands=%d admitted=%d rejected-busy=%d rejected-swarm=%d\n",
		rep.Demands, rep.Admitted, rep.RejectedBusy, rep.RejectedSwarm)
	fmt.Fprintf(&b, "outcome: completed=%d stalls=%d obstructions=%d fail-round=%d\n",
		rep.CompletedViewings, rep.Stalls, len(rep.Obstructions), rep.FailRound)
	fmt.Fprintf(&b, "load: peak-requests=%d max-swarm=%d mean-utilization=%.6f\n",
		rep.PeakRequests, rep.MaxSwarm, rep.MeanUtilization)
	fmt.Fprintf(&b, "startup: mean=%.6f p99=%.6f\n",
		rep.StartupDelay.Mean, rep.StartupDelay.P99)
	return b.String()
}
