// Package hetero builds balanced heterogeneous video systems (paper
// Section 4): synthetic box-capacity profiles, the u*-upload-compensation
// assignment that reserves relay bandwidth on rich boxes for poor ones,
// and helpers that turn a capacity population into the inputs the core
// engine and allocation schemes need.
package hetero

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/stats"
)

// Population is a set of boxes with per-box capacities.
type Population struct {
	Uploads []float64 // u_b
	Storage []float64 // d_b in videos
}

// N returns the population size.
func (p Population) N() int { return len(p.Uploads) }

// AvgUpload returns the mean upload capacity.
func (p Population) AvgUpload() float64 {
	s := 0.0
	for _, u := range p.Uploads {
		s += u
	}
	return s / float64(len(p.Uploads))
}

// AvgStorage returns the mean storage capacity.
func (p Population) AvgStorage() float64 {
	s := 0.0
	for _, d := range p.Storage {
		s += d
	}
	return s / float64(len(p.Storage))
}

// Homogeneous builds n identical boxes.
func Homogeneous(n int, u, d float64) Population {
	us := make([]float64, n)
	ds := make([]float64, n)
	for i := range us {
		us[i] = u
		ds[i] = d
	}
	return Population{Uploads: us, Storage: ds}
}

// Bimodal builds a rich/poor mix: a fraction richFrac of boxes has upload
// uRich, the rest uPoor; storage is proportional (d_b = u_b·(d/u)), which
// makes the system proportionally heterogeneous and hence u*-storage-
// balanced for d/u ≥ 2 (Section 4).
func Bimodal(n int, richFrac, uRich, uPoor, storagePerUpload float64) Population {
	us := make([]float64, n)
	ds := make([]float64, n)
	rich := int(math.Round(richFrac * float64(n)))
	for i := range us {
		if i < rich {
			us[i] = uRich
		} else {
			us[i] = uPoor
		}
		ds[i] = us[i] * storagePerUpload
	}
	return Population{Uploads: us, Storage: ds}
}

// DSLMix models an ISP fleet: a mix of DSL tiers with uploads scaled by
// the video bitrate. tiers maps an upload value to its population weight;
// storage stays proportional.
func DSLMix(rng *stats.RNG, n int, tiers map[float64]float64, storagePerUpload float64) Population {
	values := make([]float64, 0, len(tiers))
	for v := range tiers {
		values = append(values, v)
	}
	sort.Float64s(values)
	weights := make([]float64, len(values))
	for i, v := range values {
		weights[i] = tiers[v]
	}
	us := make([]float64, n)
	ds := make([]float64, n)
	for i := range us {
		us[i] = values[rng.WeightedChoice(weights)]
		ds[i] = us[i] * storagePerUpload
	}
	return Population{Uploads: us, Storage: ds}
}

// PeerAssistedServer models the paper's "peer-assisted server"
// architecture: one box with very large upload (the server) plus n−1
// client boxes with upload uClient (possibly 0, i.e. pure clients).
// The server holds serverStorage videos; clients hold clientStorage.
func PeerAssistedServer(n int, serverUpload, serverStorage, uClient, clientStorage float64) Population {
	us := make([]float64, n)
	ds := make([]float64, n)
	us[0] = serverUpload
	ds[0] = serverStorage
	for i := 1; i < n; i++ {
		us[i] = uClient
		ds[i] = clientStorage
	}
	return Population{Uploads: us, Storage: ds}
}

// Compensate computes a u*-upload-compensation assignment (Section 4):
// every poor box b (u_b < u*) gets a relay r(b) with the reservation
// u*+1−2u_b, subject to the per-relay constraint
// u_a ≥ u* + Σ_{b: r(b)=a}(u*+1−2u_b). Poor boxes are placed in
// decreasing order of need onto the relay with the most spare capacity
// (best-fit-decreasing), the lowest-numbered on a tie, so the assignment
// depends on the uploads alone. Returns core-ready relay indices (NoRelay for
// rich boxes) or an error when no feasible assignment exists.
func Compensate(uploads []float64, uStar float64) ([]int, error) {
	if uStar <= 1 {
		return nil, fmt.Errorf("hetero: u*=%v must exceed 1", uStar)
	}
	n := len(uploads)
	relays := make([]int, n)
	type poorBox struct {
		idx  int
		need float64
	}
	var poor []poorBox
	var rich []int
	spare := make([]float64, n)
	for b, u := range uploads {
		relays[b] = core.NoRelay
		if u < uStar {
			poor = append(poor, poorBox{b, analysis.ReservationNeed(u, uStar)})
		} else {
			rich = append(rich, b)
			spare[b] = u - uStar
		}
	}
	if len(poor) == 0 {
		return relays, nil
	}
	if len(rich) == 0 {
		return nil, fmt.Errorf("hetero: no rich boxes (u ≥ u*=%v) to relay %d poor boxes", uStar, len(poor))
	}
	sort.Slice(poor, func(i, j int) bool { return poor[i].need > poor[j].need })
	for _, pb := range poor {
		best, bestSpare := -1, -1.0
		for _, a := range rich {
			if sp := spare[a]; sp >= pb.need && sp > bestSpare {
				best, bestSpare = a, sp
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("hetero: cannot compensate box %d (need %.3f): insufficient rich capacity", pb.idx, pb.need)
		}
		relays[pb.idx] = best
		spare[best] -= pb.need
	}
	return relays, nil
}

// RelayLoad summarizes a compensation assignment for reporting.
type RelayLoad struct {
	PoorBoxes     int
	RichBoxes     int
	Relays        int     // rich boxes actually used as relays
	MaxPerRelay   int     // largest number of poor boxes on one relay
	TotalReserved float64 // Σ (u*+1−2u_b)
}

// SummarizeRelays computes assignment statistics.
func SummarizeRelays(uploads []float64, relays []int, uStar float64) RelayLoad {
	var rl RelayLoad
	perRelay := make(map[int]int)
	for b, u := range uploads {
		if u < uStar {
			rl.PoorBoxes++
			rl.TotalReserved += analysis.ReservationNeed(u, uStar)
			if relays[b] != core.NoRelay {
				perRelay[relays[b]]++
			}
		} else {
			rl.RichBoxes++
		}
	}
	rl.Relays = len(perRelay)
	for _, c := range perRelay {
		if c > rl.MaxPerRelay {
			rl.MaxPerRelay = c
		}
	}
	return rl
}

// AllocationSlots converts per-box storage (in videos) into per-box
// replica slot counts for a c-stripe catalog replicated k times, choosing
// the largest catalog size m with k·m·c ≤ Σ slots and trimming the excess
// slots from the largest boxes so the permutation allocation is exact.
// Returns the slot vector and m.
func AllocationSlots(storage []float64, c, k int) ([]int, int, error) {
	if c <= 0 || k <= 0 {
		return nil, 0, fmt.Errorf("hetero: need positive c and k (got c=%d k=%d)", c, k)
	}
	slots := make([]int, len(storage))
	total := 0
	for b, d := range storage {
		if d < 0 {
			return nil, 0, fmt.Errorf("hetero: box %d has negative storage", b)
		}
		slots[b] = int(math.Floor(d*float64(c) + 1e-9))
		total += slots[b]
	}
	m := total / (k * c)
	if m == 0 {
		return nil, 0, fmt.Errorf("hetero: total storage %d slots cannot hold even one video at k=%d, c=%d", total, k, c)
	}
	excess := total - m*k*c
	// Trim excess one slot at a time from the currently largest box: keeps
	// the trim spread out and deterministic.
	for excess > 0 {
		big := 0
		for b := range slots {
			if slots[b] > slots[big] {
				big = b
			}
		}
		slots[big]--
		excess--
	}
	return slots, m, nil
}

// EffectiveStorageBalance reports whether the population is
// u*-storage-balanced, delegating to the analysis package.
func (p Population) EffectiveStorageBalance(uStar, mu float64) bool {
	return analysis.StorageBalanced(analysis.HeteroParams{
		Uploads: p.Uploads, Storage: p.Storage, UStar: uStar, Mu: mu, Duration: 1,
	})
}
