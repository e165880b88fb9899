// Package expander audits the expansion property that Theorem 1's proof
// demands of a random allocation: for any multiset σ of stripe requests,
// the boxes storing those stripes must jointly have enough upload slots
// (Lemma 1's Hall condition restricted to sourcing, i.e. with empty
// caches: U_B(σ) ≥ |σ|/c, in slots Σ slots(B(σ)) ≥ |σ|).
//
// Checking all multisets is exponential; the auditor combines three
// practical probes:
//
//   - per-video probes: every video's stripe set at saturation demand,
//   - random subset probes: uniform stripe subsets at adversarial
//     multiplicity,
//   - greedy overlap probes: grow stripe sets that maximize server-set
//     overlap, the shape a min cut actually has.
//
// A violation found here is a genuine obstruction certificate for the
// sourcing-only system and a strong warning for the full system; absence
// of violations is a (one-sided) screening, cheaper than simulation.
package expander

import (
	"repro/internal/allocation"
	"repro/internal/stats"
	"repro/internal/video"
)

// Finding is one probed stripe multiset and its capacity margin.
type Finding struct {
	Stripes  []video.StripeID // distinct stripes probed
	Requests int              // multiset size |σ| (slots demanded)
	Boxes    int              // |B(σ)|
	Slots    int64            // Σ upload slots over B(σ)
	// Ratio is Slots/Requests: below 1 the probe is a Hall violation.
	Ratio float64
}

// Violated reports whether this finding is a genuine obstruction.
func (f Finding) Violated() bool { return f.Ratio < 1 }

// Audit is the aggregate result.
type Audit struct {
	Probes     int
	Violations int
	Worst      Finding // the lowest-ratio probe
}

// Auditor probes one allocation against per-box upload slot capacities.
type Auditor struct {
	alloc *allocation.Allocation
	slots []int64
	// maxRequests caps the multiset size at the system-wide concurrent
	// request bound n·c.
	maxRequests int
}

// New builds an auditor. capSlots[b] is box b's upload capacity in stripe
// slots (⌊u_b·c⌋).
func New(alloc *allocation.Allocation, capSlots []int64) *Auditor {
	cat := alloc.Catalog()
	return &Auditor{
		alloc:       alloc,
		slots:       capSlots,
		maxRequests: alloc.NumBoxes() * cat.C,
	}
}

// measure computes the finding for a distinct stripe set at a total
// request multiplicity spread evenly (the adversary can demand each
// distinct stripe up to n times; we clamp to the system bound).
func (a *Auditor) measure(stripes []video.StripeID, requests int) Finding {
	if requests > a.maxRequests {
		requests = a.maxRequests
	}
	seen := make(map[int32]struct{})
	var slots int64
	for _, s := range stripes {
		for _, b := range a.alloc.Holders(s) {
			if _, ok := seen[b]; !ok {
				seen[b] = struct{}{}
				slots += a.slots[b]
			}
		}
	}
	f := Finding{
		Stripes:  stripes,
		Requests: requests,
		Boxes:    len(seen),
		Slots:    slots,
	}
	if requests > 0 {
		f.Ratio = float64(slots) / float64(requests)
	} else {
		f.Ratio = 1
	}
	return f
}

// maxMultiplicity bounds how many concurrent requests one distinct stripe
// can receive: one per box.
func (a *Auditor) maxMultiplicity() int { return a.alloc.NumBoxes() }

// AuditVideos probes every video's full stripe set at saturation (every
// box demands the video: c stripes × one slot per viewer, clamped).
func (a *Auditor) AuditVideos() Audit {
	cat := a.alloc.Catalog()
	audit := Audit{Worst: Finding{Ratio: 1e18}}
	for m := 0; m < cat.M; m++ {
		stripes := make([]video.StripeID, cat.C)
		for i := 0; i < cat.C; i++ {
			stripes[i] = cat.Stripe(video.ID(m), i)
		}
		f := a.measure(stripes, cat.C*a.maxMultiplicity())
		audit.absorb(f)
	}
	return audit
}

// AuditRandom probes `probes` uniformly random distinct-stripe subsets,
// each demanded at full multiplicity.
func (a *Auditor) AuditRandom(rng *stats.RNG, probes, maxDistinct int) Audit {
	cat := a.alloc.Catalog()
	total := cat.NumStripes()
	if maxDistinct <= 0 || maxDistinct > total {
		maxDistinct = total
	}
	audit := Audit{Worst: Finding{Ratio: 1e18}}
	for p := 0; p < probes; p++ {
		i1 := 1 + rng.Intn(maxDistinct)
		idxs := rng.SampleWithoutReplacement(total, i1)
		stripes := make([]video.StripeID, i1)
		for j, s := range idxs {
			stripes[j] = video.StripeID(s)
		}
		f := a.measure(stripes, i1*a.maxMultiplicity())
		audit.absorb(f)
	}
	return audit
}

// AuditGreedy runs `probes` greedy min-cut searches: start from the
// stripe whose servers have the least capacity, repeatedly add the stripe
// that increases server capacity the least (maximum overlap), measuring
// at every prefix.
func (a *Auditor) AuditGreedy(rng *stats.RNG, probes, depth int) Audit {
	cat := a.alloc.Catalog()
	total := cat.NumStripes()
	if depth <= 0 || depth > total {
		depth = total
	}
	audit := Audit{Worst: Finding{Ratio: 1e18}}
	for p := 0; p < probes; p++ {
		// Random start biased toward weak stripes: sample a few and keep
		// the weakest.
		best := video.StripeID(rng.Intn(total))
		bestSlots := a.stripeSlots(best)
		for tries := 0; tries < 4; tries++ {
			cand := video.StripeID(rng.Intn(total))
			if s := a.stripeSlots(cand); s < bestSlots {
				best, bestSlots = cand, s
			}
		}
		inSet := make(map[video.StripeID]struct{}, depth)
		boxes := make(map[int32]struct{})
		var slots int64
		stripes := make([]video.StripeID, 0, depth)
		add := func(s video.StripeID) {
			inSet[s] = struct{}{}
			stripes = append(stripes, s)
			for _, b := range a.alloc.Holders(s) {
				if _, ok := boxes[b]; !ok {
					boxes[b] = struct{}{}
					slots += a.slots[b]
				}
			}
		}
		add(best)
		for len(stripes) < depth {
			// Scan a sample of candidates for the minimal capacity increase.
			var pick video.StripeID = -1
			var pickCost int64 = 1 << 62
			for tries := 0; tries < 16; tries++ {
				cand := video.StripeID(rng.Intn(total))
				if _, dup := inSet[cand]; dup {
					continue
				}
				var cost int64
				for _, b := range a.alloc.Holders(cand) {
					if _, ok := boxes[b]; !ok {
						cost += a.slots[b]
					}
				}
				if cost < pickCost {
					pick, pickCost = cand, cost
				}
			}
			if pick < 0 {
				break
			}
			add(pick)
			f := Finding{
				Stripes:  append([]video.StripeID(nil), stripes...),
				Requests: min(len(stripes)*a.maxMultiplicity(), a.maxRequests),
				Boxes:    len(boxes),
				Slots:    slots,
			}
			f.Ratio = float64(f.Slots) / float64(f.Requests)
			audit.absorb(f)
		}
	}
	return audit
}

func (a *Auditor) stripeSlots(s video.StripeID) int64 {
	var slots int64
	seen := make(map[int32]struct{})
	for _, b := range a.alloc.Holders(s) {
		if _, ok := seen[b]; !ok {
			seen[b] = struct{}{}
			slots += a.slots[b]
		}
	}
	return slots
}

// Full runs all three probe families and merges the results.
func (a *Auditor) Full(rng *stats.RNG, randomProbes, greedyProbes int) Audit {
	audit := a.AuditVideos()
	audit.merge(a.AuditRandom(rng, randomProbes, 0))
	audit.merge(a.AuditGreedy(rng, greedyProbes, 0))
	return audit
}

func (audit *Audit) absorb(f Finding) {
	audit.Probes++
	if f.Violated() {
		audit.Violations++
	}
	if f.Ratio < audit.Worst.Ratio {
		audit.Worst = f
	}
}

func (audit *Audit) merge(other Audit) {
	audit.Probes += other.Probes
	audit.Violations += other.Violations
	if other.Worst.Ratio < audit.Worst.Ratio {
		audit.Worst = other.Worst
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
