// Package vod is the public API of this reproduction of Boufkhad, Mathieu,
// de Montgolfier, Perino & Viennot, "An Upload Bandwidth Threshold for
// Peer-to-Peer Video-on-Demand Scalability" (IPDPS 2009).
//
// It assembles the internal substrates — stripe catalogs, random
// allocations, the round-based swarm engine with max-flow connection
// matching, heterogeneous relay compensation, and the analytical bounds —
// behind one builder:
//
//	sys, err := vod.New(vod.Spec{
//		Boxes:   200,
//		Upload:  1.5,
//		Storage: 4,
//		Growth:  1.2,
//		Seed:    42,
//	})
//	report, err := sys.Run(vod.NewZipfWorkload(7, 0.3, 0.9), 1000)
//
// Theorem-level planning is exposed through Plan and HeteroPlan; the
// adversarial generators and experiment harness used to reproduce the
// paper's claims live under internal/ and are driven by cmd/vodbench.
package vod

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/allocation"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/expander"
	"repro/internal/hetero"
	"repro/internal/stats"
	"repro/internal/video"
)

// Re-exported domain types. The aliases make the internal packages' types
// part of the public API surface without duplicating them.
type (
	// Catalog describes the video set: m videos, c stripes, T rounds.
	Catalog = video.Catalog
	// VideoID identifies a video.
	VideoID = video.ID
	// StripeID identifies a stripe.
	StripeID = video.StripeID
	// Demand is one user request (box wants video).
	Demand = core.Demand
	// Generator produces the demand sequence, one batch per round.
	Generator = core.Generator
	// View is the read-only system window handed to generators.
	View = core.View
	// Report aggregates a simulation run.
	Report = core.Report
	// Obstruction is a Lemma 1 infeasibility certificate.
	Obstruction = core.Obstruction
	// StepResult reports a single simulated round.
	StepResult = core.StepResult
	// Plan is a full Theorem 1 parameterization.
	Plan = analysis.Plan
	// HeteroPlan is a full Theorem 2 parameterization.
	HeteroPlan = analysis.HeteroPlan
	// Population is a heterogeneous box capacity profile.
	Population = hetero.Population
)

// Spec configures a video system. Zero values select paper defaults where
// they exist.
type Spec struct {
	// Boxes is the number of set-top boxes n (required).
	Boxes int
	// Upload is the homogeneous normalized upload capacity u. Ignored
	// when Uploads is set.
	Upload float64
	// Uploads gives per-box capacities for heterogeneous systems.
	Uploads []float64
	// Storage is the per-box storage d in videos (homogeneous). Ignored
	// when Storages is set.
	Storage float64
	// Storages gives per-box storage for heterogeneous systems.
	Storages []float64
	// Stripes is the stripe count c; 0 derives it from Theorem 1/2.
	Stripes int
	// Replicas is the per-stripe replication k; 0 picks a practical
	// default (4; the theorem bound is available via PlanFor).
	Replicas int
	// Duration is the video length T in rounds (default 100).
	Duration int
	// Growth is the maximal swarm growth µ (default 1.2).
	Growth float64
	// UStar activates the Section 4 heterogeneous relay construction for
	// boxes with upload below it (0 = homogeneous strategy).
	UStar float64
	// SourcingOnly disables playback-cache serving (baseline mode).
	SourcingOnly bool
	// Resilient keeps running through obstructions, counting stalls,
	// instead of halting at the first one.
	Resilient bool
	// Trace records per-round statistics into the report.
	Trace bool
	// Shards is accepted and ignored: there is one round engine, and
	// results were bit-identical at every shard count by contract.
	//
	// Deprecated: removed with the contended-sharded workload.
	Shards int
	// Seed drives the random allocation (and nothing else).
	Seed uint64
}

// System is a runnable video system.
type System struct {
	inner   *core.System
	spec    Spec
	catalog Catalog
	alloc   *allocation.Allocation
	caps    []int64
}

// New validates the spec, draws the random permutation allocation,
// computes relay compensation when UStar is set, and builds the system.
func New(spec Spec) (*System, error) {
	if spec.Boxes <= 0 {
		return nil, fmt.Errorf("vod: Spec.Boxes must be positive")
	}
	uploads := spec.Uploads
	if uploads == nil {
		if spec.Upload <= 0 {
			return nil, fmt.Errorf("vod: set Spec.Upload or Spec.Uploads")
		}
		uploads = make([]float64, spec.Boxes)
		for i := range uploads {
			uploads[i] = spec.Upload
		}
	}
	if len(uploads) != spec.Boxes {
		return nil, fmt.Errorf("vod: %d uploads for %d boxes", len(uploads), spec.Boxes)
	}
	storages := spec.Storages
	if storages == nil {
		d := spec.Storage
		if d <= 0 {
			d = 4
		}
		storages = make([]float64, spec.Boxes)
		for i := range storages {
			storages[i] = d
		}
	}
	if len(storages) != spec.Boxes {
		return nil, fmt.Errorf("vod: %d storages for %d boxes", len(storages), spec.Boxes)
	}
	mu := spec.Growth
	if mu == 0 {
		mu = 1.2
	}
	T := spec.Duration
	if T == 0 {
		T = 100
	}
	k := spec.Replicas
	if k == 0 {
		k = 4
	}
	c := spec.Stripes
	if c == 0 {
		var err error
		if spec.UStar > 0 {
			c, err = analysis.Theorem2ConstructionC(spec.UStar, mu)
		} else {
			avg := 0.0
			for _, u := range uploads {
				avg += u
			}
			avg /= float64(len(uploads))
			c, err = analysis.MinC(avg, mu)
		}
		if err != nil {
			return nil, fmt.Errorf("vod: cannot derive stripe count: %w", err)
		}
	}

	slots, m, err := hetero.AllocationSlots(storages, c, k)
	if err != nil {
		return nil, fmt.Errorf("vod: %w", err)
	}
	cat, err := video.NewCatalog(m, c, T)
	if err != nil {
		return nil, fmt.Errorf("vod: %w", err)
	}
	alloc, err := allocation.Permutation(stats.NewRNG(spec.Seed), cat, slots, k)
	if err != nil {
		return nil, fmt.Errorf("vod: %w", err)
	}

	cfg := core.Config{
		Alloc:               alloc,
		Uploads:             uploads,
		Mu:                  mu,
		DisableCacheServing: spec.SourcingOnly,
		TraceRounds:         spec.Trace,
	}
	if spec.Resilient {
		cfg.Failure = core.FailStall
	}
	if spec.UStar > 0 {
		relays, err := hetero.Compensate(uploads, spec.UStar)
		if err != nil {
			return nil, fmt.Errorf("vod: %w", err)
		}
		cfg.Strategy = core.StrategyRelayed
		cfg.UStar = spec.UStar
		cfg.Relays = relays
	}
	inner, err := core.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("vod: %w", err)
	}
	capSlots := make([]int64, spec.Boxes)
	for b, u := range uploads {
		capSlots[b] = int64(analysis.UploadSlots(u, c))
	}
	return &System{inner: inner, spec: spec, catalog: cat, alloc: alloc, caps: capSlots}, nil
}

// Catalog returns the catalog the allocation achieved (its M is the
// largest catalog the spec's storage and replication admit).
func (s *System) Catalog() Catalog { return s.catalog }

// View returns the read-only view used by generators.
func (s *System) View() *View { return s.inner.View() }

// Step simulates one round with demands from gen (nil for none).
func (s *System) Step(gen Generator) (StepResult, error) { return s.inner.Step(gen) }

// Run simulates `rounds` rounds (stopping early at an obstruction unless
// the spec was Resilient) and returns the aggregate report.
func (s *System) Run(gen Generator, rounds int) (Report, error) { return s.inner.Run(gen, rounds) }

// Close does nothing, any number of times: a System holds no goroutines
// or other resources to release, and stepping it afterwards works.
//
// Deprecated: removed with the contended-sharded workload.
func (s *System) Close() {}

// StageTiming was the sharded engine's per-round wall-clock split; the
// one engine has no such stages and every field stays zero.
//
// Deprecated: removed with the contended-sharded workload.
type StageTiming struct {
	ParallelNS int64
	SerialNS   int64
}

// StageTiming returns the zero value.
//
// Deprecated: removed with the contended-sharded workload.
func (s *System) StageTiming() StageTiming { return StageTiming{} }

// Failed reports whether the system hit a fail-stop obstruction.
func (s *System) Failed() bool { return s.inner.Failed() }

// Spec returns the spec the system was built from.
func (s *System) Spec() Spec { return s.spec }

// Round returns the current round number.
func (s *System) Round() int { return s.inner.Round() }

// Report returns the aggregate report for the rounds simulated so far.
func (s *System) Report() Report { return s.inner.Report() }

// SetCapacity changes box b's matching capacity to `slots` upload slots,
// effective next round. Excess assignments are evicted deterministically.
func (s *System) SetCapacity(b int, slots int64) error { return s.inner.SetCapacity(b, slots) }

// AuditSummary reports the sampled Hall-condition screening of the
// system's allocation (see internal/expander): Margin is the lowest
// observed slots/requests ratio over all probes — below 1 some request
// multiset provably overwhelms its sourcing capacity (a sourcing-only
// obstruction); the higher above 1, the more adversarial headroom.
type AuditSummary struct {
	Probes     int
	Violations int
	Margin     float64
}

// AuditAllocation runs the expansion audit on this system's allocation:
// per-video saturation probes plus `probes` random-subset and greedy
// min-cut-shaped probes.
func (s *System) AuditAllocation(seed uint64, probes int) AuditSummary {
	aud := expander.New(s.alloc, s.caps).Full(stats.NewRNG(seed), probes, probes/10+1)
	return AuditSummary{
		Probes:     aud.Probes,
		Violations: aud.Violations,
		Margin:     aud.Worst.Ratio,
	}
}

// PlanFor derives the full Theorem 1 parameterization for a homogeneous
// system: stripe count, replication, catalog size, and the lower bound.
func PlanFor(n int, u float64, d int, mu float64) (Plan, error) {
	return analysis.NewPlan(analysis.HomogeneousParams{N: n, U: u, D: d, Mu: mu})
}

// HeteroPlanFor derives the Theorem 2 parameterization for a population.
func HeteroPlanFor(pop Population, uStar, mu float64) (HeteroPlan, error) {
	return analysis.NewHeteroPlan(analysis.HeteroParams{
		Uploads: pop.Uploads, Storage: pop.Storage, UStar: uStar, Mu: mu, Duration: 1,
	})
}

// Bimodal builds a rich/poor capacity profile with proportional storage.
func Bimodal(n int, richFrac, uRich, uPoor, storagePerUpload float64) Population {
	return hetero.Bimodal(n, richFrac, uRich, uPoor, storagePerUpload)
}

// NewZipfWorkload returns a realistic background workload: idle boxes
// demand with probability p per round, video popularity Zipf(s).
func NewZipfWorkload(seed uint64, p, s float64) Generator {
	return &adversary.Zipf{RNG: stats.NewRNG(seed), P: p, S: s}
}

// NewFlashCrowd returns the flash-crowd adversary aimed at target,
// rotating to the next video when the crowd drains.
func NewFlashCrowd(target VideoID) Generator {
	return &adversary.FlashCrowd{Target: target, Rotate: true}
}

// NewAvoidPossession returns the Section 1.3 impossibility adversary.
func NewAvoidPossession() Generator { return &adversary.AvoidPossession{} }

// NewDistinctVideos returns the maximal-sourcing-load adversary.
func NewDistinctVideos() Generator { return &adversary.DistinctVideos{} }

// NewPoorFirst returns the relay-stressing generator: boxes below uStar
// demand before rich ones.
func NewPoorFirst(uStar float64) Generator { return &adversary.PoorFirst{UStar: uStar} }

// WithRetry wraps gen with admission-queue retry semantics so start-up
// delay measurements include queueing.
func WithRetry(gen Generator) Generator { return &adversary.Retry{Inner: gen} }
