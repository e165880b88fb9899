// Package core implements the paper's round-based distributed
// video-on-demand engine: box state machines, the preloading request
// strategy of Section 3, the relayed strategy for deficient boxes of
// Section 4, per-round construction of the request-to-box bipartite graph
// of Section 2.2, connection matching (Lemma 1) via an incremental
// b-matcher, and obstruction detection with min-cut certificates.
//
// Time is discrete rounds; bandwidth is measured in stripe slots: one slot
// is the rate 1/c of a single stripe, and a box with normalized upload u_b
// serves ⌊u_b·c⌋ slots per round (the paper's effective upload u′).
package core

import (
	"fmt"
	"math"

	"repro/internal/allocation"
	"repro/internal/analysis"
	"repro/internal/video"
)

// Strategy selects how an admitted demand is turned into stripe requests.
type Strategy int

const (
	// StrategyPreload is the paper's Section 3 strategy: one preload
	// request at admission round t (stripe chosen round-robin per swarm),
	// the c−1 postponed requests at t+1. Start-up delay 3 rounds.
	StrategyPreload Strategy = iota
	// StrategyNaive requests all c stripes at admission time. It lacks the
	// preloading stagger and is the ablation baseline that breaks under
	// flash crowds (experiment E5 context).
	StrategyNaive
	// StrategyRelayed is the Section 4 heterogeneous strategy: poor boxes
	// (u_b < u*) route their preload and part of their postponed requests
	// through a reserved relay box; rich boxes postpone at t+2. The
	// request time scale doubles.
	StrategyRelayed
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyPreload:
		return "preload"
	case StrategyNaive:
		return "naive"
	case StrategyRelayed:
		return "relayed"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// FailurePolicy selects what a round with unmatched requests does.
type FailurePolicy int

const (
	// FailStop halts the simulation at the first obstruction — the strict
	// interpretation used to validate the theorems (any obstruction
	// falsifies "any sequence of demands can be satisfied").
	FailStop FailurePolicy = iota
	// FailStall lets unmatched requests stall (no progress this round) and
	// keeps running, counting stall-rounds — the resilient interpretation
	// used for realistic workloads and the protocol-gap experiment.
	FailStall
)

// String implements fmt.Stringer.
func (f FailurePolicy) String() string {
	if f == FailStop {
		return "stop"
	}
	return "stall"
}

// NoRelay marks a box without a relay in Config.Relays.
const NoRelay = -1

// Config assembles a runnable video system. NewSystem keeps the Config,
// slices and allocation included, without copying them: the caller must
// not mutate them afterwards. The engine reads them every round, and
// System.Fingerprint hashes them once and caches the value.
type Config struct {
	// Alloc is the static stripe allocation; it defines the catalog and
	// the number of boxes.
	Alloc *allocation.Allocation
	// Uploads holds the normalized upload capacity u_b of each box.
	Uploads []float64
	// Mu is the maximal swarm growth per round (µ ≥ 1).
	Mu float64
	// Strategy selects the request strategy (default StrategyPreload).
	Strategy Strategy
	// Failure selects the failure policy (default FailStop).
	Failure FailurePolicy
	// DisableCacheServing turns off swarming: only allocation boxes serve.
	// This is the sourcing-only baseline of experiment E9.
	DisableCacheServing bool
	// Relays assigns a relay box to each poor box for StrategyRelayed
	// (NoRelay otherwise). Built by package hetero.
	Relays []int
	// UStar is the deficiency threshold u* for StrategyRelayed.
	UStar float64
	// Paranoid enables per-round matching verification (tests).
	Paranoid bool
	// TraceRounds records per-round statistics in the report when true.
	TraceRounds bool
}

// validate checks the configuration and derives per-box matcher slot
// capacities (upload slots minus static relay reservations).
func (cfg *Config) validate() ([]int64, error) {
	if cfg.Alloc == nil {
		return nil, fmt.Errorf("core: config needs an allocation")
	}
	n := cfg.Alloc.NumBoxes()
	if len(cfg.Uploads) != n {
		return nil, fmt.Errorf("core: %d uploads for %d boxes", len(cfg.Uploads), n)
	}
	if cfg.Mu < 1 {
		return nil, fmt.Errorf("core: µ=%v must be at least 1", cfg.Mu)
	}
	cat := cfg.Alloc.Catalog()
	caps := make([]int64, n)
	for b, u := range cfg.Uploads {
		if u < 0 {
			return nil, fmt.Errorf("core: box %d has negative upload %v", b, u)
		}
		caps[b] = int64(analysis.UploadSlots(u, cat.C))
	}
	switch cfg.Strategy {
	case StrategyPreload, StrategyNaive:
		if cfg.Relays != nil {
			return nil, fmt.Errorf("core: relays require StrategyRelayed")
		}
	case StrategyRelayed:
		if cfg.UStar <= 1 {
			return nil, fmt.Errorf("core: StrategyRelayed needs u* > 1, got %v", cfg.UStar)
		}
		if len(cfg.Relays) != n {
			return nil, fmt.Errorf("core: %d relays for %d boxes", len(cfg.Relays), n)
		}
		// Subtract the static forwarding reservation (c − c_b slots per
		// assigned poor box) from each relay's matching capacity.
		for b, r := range cfg.Relays {
			poor := cfg.Uploads[b] < cfg.UStar
			if r == NoRelay {
				if poor {
					return nil, fmt.Errorf("core: poor box %d (u=%v < u*=%v) has no relay",
						b, cfg.Uploads[b], cfg.UStar)
				}
				continue
			}
			if !poor {
				return nil, fmt.Errorf("core: rich box %d must not have a relay", b)
			}
			if r < 0 || r >= n || r == b {
				return nil, fmt.Errorf("core: box %d has invalid relay %d", b, r)
			}
			if cfg.Uploads[r] < cfg.UStar {
				return nil, fmt.Errorf("core: relay %d of box %d is itself poor", r, b)
			}
			cb := directStripeCount(cfg.Uploads[b], cat.C, cfg.Mu)
			caps[r] -= int64(cat.C - cb)
			if caps[r] < 0 {
				return nil, fmt.Errorf("core: relay %d over-reserved (capacity went negative); use a feasible compensation assignment", r)
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", cfg.Strategy)
	}
	return caps, nil
}

// directStripeCount returns c_b = clamp(⌊c·u_b − 4µ⁴⌋, 0, c−1): the number
// of postponed stripes a poor box fetches directly (Section 4).
func directStripeCount(ub float64, c int, mu float64) int {
	cb := int(math.Floor(ub*float64(c) - 4*math.Pow(mu, 4)))
	if cb < 0 {
		cb = 0
	}
	if cb > c-1 {
		cb = c - 1
	}
	return cb
}

// Demand is a user request: box wants to watch video. Born optionally
// records the round the user first asked (for start-up delay accounting
// across admission retries); zero or negative means "this round", and a
// round later than the one the demand arrives in is refused by Step.
type Demand struct {
	Box   int
	Video video.ID
	Born  int
}

// Generator produces the demand sequence, one batch per round. It sees a
// read-only View of the system, which is how adversarial generators pick
// their targets.
type Generator interface {
	// Next returns the demands arriving during round `round`. Demands the
	// system cannot admit (busy box, swarm growth bound) are reported back
	// through the View on the next call via rejection counters; generators
	// that need retry semantics track their own pending sets.
	Next(v *View, round int) []Demand
}
