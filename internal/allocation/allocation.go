// Package allocation implements the paper's random video allocation
// schemes (Section 2.1): each of the m·c stripes is replicated k times
// onto boxes, either through a uniformly random permutation of the d·n·c
// replica slots (exactly balanced: every box stores exactly its d·c
// replicas) or through independent draws proportional to storage capacity
// (simpler but load-unbalanced; the paper requires c = Ω(log n) for it).
package allocation

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/video"
)

// Allocation records which boxes statically store which stripe replicas.
// It is a read-only table in compressed-row form: stripe s owns
// holders[start[s]:start[s+1]], so the whole allocation is two flat
// arrays however many stripes and boxes there are.
type Allocation struct {
	cat video.Catalog
	n   int
	// holders lists the boxes storing each stripe's replicas, stripe by
	// stripe. A box may appear more than once in one stripe's run only in
	// independent allocations.
	holders []int32
	start   []int32
	// Overflow counts independent-allocation replicas that fell into an
	// already-full box (and were therefore dropped, per the paper's note
	// that the process stops on a full box). Always 0 for permutations.
	Overflow int
}

// Catalog returns the catalog this allocation stores.
func (a *Allocation) Catalog() video.Catalog { return a.cat }

// NumBoxes returns the number of boxes.
func (a *Allocation) NumBoxes() int { return a.n }

// NumStripes returns the number of stripes.
func (a *Allocation) NumStripes() int { return len(a.start) - 1 }

// Holders returns the boxes storing a replica of stripe s, without
// allocating. The slice aliases the table and must not be modified; its
// capacity ends with the stripe, so an append copies instead of writing
// over the next stripe.
func (a *Allocation) Holders(s video.StripeID) []int32 {
	lo, hi := a.start[s], a.start[s+1]
	return a.holders[lo:hi:hi]
}

// Replicas returns the number of stored replicas of stripe s.
func (a *Allocation) Replicas(s video.StripeID) int { return int(a.start[s+1] - a.start[s]) }

// Stores reports whether box b stores stripe s.
func (a *Allocation) Stores(b int, s video.StripeID) bool {
	for _, bb := range a.Holders(s) {
		if int(bb) == b {
			return true
		}
	}
	return false
}

// newTable returns an empty allocation of n boxes with room for replicas
// holders. Callers append each stripe's holders in stripe order and close
// the stripe with endStripe.
func newTable(cat video.Catalog, n, replicas int) *Allocation {
	return &Allocation{
		cat:     cat,
		n:       n,
		holders: make([]int32, 0, replicas),
		start:   make([]int32, 1, cat.NumStripes()+1),
	}
}

// endStripe closes the current stripe's run of holders.
func (a *Allocation) endStripe() { a.start = append(a.start, int32(len(a.holders))) }

// Permutation builds a random permutation allocation: k replicas per
// stripe, slotsPerBox[b] replica slots on box b, with
// Σ slotsPerBox == k · m · c. Every slot is filled, so box loads are exact.
// It is PermutationShape and its fill back to back.
func Permutation(rng *stats.RNG, cat video.Catalog, slotsPerBox []int, k int) (*Allocation, error) {
	a, fill, err := PermutationShape(cat, slotsPerBox, k)
	if err != nil {
		return nil, err
	}
	fill(rng)
	return a, nil
}

// PermutationShape validates a permutation allocation's slots and returns
// its shape — the catalog, the boxes, where each stripe's k holders sit
// and, as the holders, the owner table, in which box b owns the
// slotsPerBox[b] slots after the boxes before it — with the fill that
// draws the holders from rng. Until fill has returned only the shape may
// be read (Catalog, NumBoxes, NumStripes, Replicas), so that a caller can
// run fill beside other work.
//
// Replica j (of stripe j/k) lands in slot perm[j], perm being the
// permutation ShuffleInts draws over the slots. fill shuffles the owner
// table in place with those draws, which puts owner[perm[j]] at position
// j: the table becomes the holders with no permutation array and no
// gather.
func PermutationShape(cat video.Catalog, slotsPerBox []int, k int) (*Allocation, func(rng *stats.RNG), error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("allocation: k=%d must be >= 1", k)
	}
	totalSlots := 0
	for b, s := range slotsPerBox {
		if s < 0 {
			return nil, nil, fmt.Errorf("allocation: box %d has negative slots", b)
		}
		totalSlots += s
	}
	replicas := k * cat.NumStripes()
	if totalSlots != replicas {
		return nil, nil, fmt.Errorf("allocation: %d slots != k·m·c = %d replicas (k=%d, m=%d, c=%d)",
			totalSlots, replicas, k, cat.M, cat.C)
	}
	owners := make([]int32, totalSlots)
	pos := 0
	for b, s := range slotsPerBox {
		run := owners[pos : pos+s]
		for i := range run {
			run[i] = int32(b)
		}
		pos += s
	}
	start := make([]int32, cat.NumStripes()+1)
	for s := range start {
		start[s] = int32(s * k)
	}
	a := &Allocation{cat: cat, n: len(slotsPerBox), holders: owners, start: start}
	return a, func(rng *stats.RNG) { stats.ShuffleSlice(rng, owners) }, nil
}

// HomogeneousPermutation is the common case: n boxes with d videos of
// storage each (d·c replica slots), catalog size m = d·n/k. It derives m
// from (n, d, k) and returns the allocation together with its catalog.
func HomogeneousPermutation(rng *stats.RNG, n, d, c, t, k int) (*Allocation, video.Catalog, error) {
	if k < 1 || (d*n)%k != 0 {
		return nil, video.Catalog{}, fmt.Errorf("allocation: d·n=%d not divisible by k=%d", d*n, k)
	}
	m := d * n / k
	cat, err := video.NewCatalog(m, c, t)
	if err != nil {
		return nil, video.Catalog{}, err
	}
	slots := make([]int, n)
	for i := range slots {
		slots[i] = d * c
	}
	a, err := Permutation(rng, cat, slots, k)
	return a, cat, err
}

// Independent builds a random independent allocation: each of the k
// replicas of each stripe picks a box with probability proportional to
// that box's slot capacity. Replicas landing on a box that is already full
// are dropped and counted in Overflow — the failure mode the paper's
// c = Ω(log n) requirement controls (experiment E8).
func Independent(rng *stats.RNG, cat video.Catalog, slotsPerBox []int, k int) (*Allocation, error) {
	if k < 1 {
		return nil, fmt.Errorf("allocation: k=%d must be >= 1", k)
	}
	n := len(slotsPerBox)
	weights := make([]float64, n)
	total := 0
	for b, s := range slotsPerBox {
		if s < 0 {
			return nil, fmt.Errorf("allocation: box %d has negative slots", b)
		}
		weights[b] = float64(s)
		total += s
	}
	if total == 0 {
		return nil, fmt.Errorf("allocation: no storage slots at all")
	}
	a := newTable(cat, n, k*cat.NumStripes())
	used := make([]int, n)
	for s := 0; s < cat.NumStripes(); s++ {
		for r := 0; r < k; r++ {
			b := rng.WeightedChoice(weights)
			if used[b] >= slotsPerBox[b] {
				a.Overflow++
				continue
			}
			used[b]++
			a.holders = append(a.holders, int32(b))
		}
		a.endStripe()
	}
	return a, nil
}

// FullReplication builds the sourcing-only baseline in the spirit of
// Push-to-Peer (Suh et al.): the catalog is small enough that every box
// stores a slice of every video; here, at stripe granularity, the replicas
// of every stripe are spread round-robin over all boxes. It requires
// m·c·k ≤ Σ slots like any allocation, and represents the "each box stores
// a constant portion of each video" regime (m = O(d/ℓ)).
func FullReplication(cat video.Catalog, slotsPerBox []int, k int) (*Allocation, error) {
	if k < 1 {
		return nil, fmt.Errorf("allocation: k=%d must be >= 1", k)
	}
	n := len(slotsPerBox)
	a := newTable(cat, n, k*cat.NumStripes())
	used := make([]int, n)
	next := 0
	for s := 0; s < cat.NumStripes(); s++ {
		for r := 0; r < k; r++ {
			placed := false
			for tries := 0; tries < n; tries++ {
				b := next % n
				next++
				if used[b] < slotsPerBox[b] {
					used[b]++
					a.holders = append(a.holders, int32(b))
					placed = true
					break
				}
			}
			if !placed {
				return nil, fmt.Errorf("allocation: storage exhausted at stripe %d replica %d", s, r)
			}
		}
		a.endStripe()
	}
	return a, nil
}

// LoadStats summarizes per-box replica loads and per-stripe replica counts.
type LoadStats struct {
	BoxLoad    stats.Summary // replicas stored per box
	StripeLoad stats.Summary // replicas stored per stripe
	MaxBoxLoad int
	MinStripes int // minimum replica count over stripes (0 = a stripe vanished)
	Overflow   int
}

// Stats computes load statistics for the allocation.
func (a *Allocation) Stats() LoadStats {
	boxLoads := make([]float64, a.n)
	for _, b := range a.holders {
		boxLoads[b]++
	}
	maxLoad := 0
	for _, l := range boxLoads {
		maxLoad = max(maxLoad, int(l))
	}
	stripeLoads := make([]float64, a.NumStripes())
	minStripes := -1
	for s := range stripeLoads {
		l := a.Replicas(video.StripeID(s))
		stripeLoads[s] = float64(l)
		if minStripes < 0 || l < minStripes {
			minStripes = l
		}
	}
	return LoadStats{
		BoxLoad:    stats.Summarize(boxLoads),
		StripeLoad: stats.Summarize(stripeLoads),
		MaxBoxLoad: maxLoad,
		MinStripes: minStripes,
		Overflow:   a.Overflow,
	}
}
