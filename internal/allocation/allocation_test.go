package allocation

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/video"
)

func TestHomogeneousPermutationExactBalance(t *testing.T) {
	rng := stats.NewRNG(1)
	const n, d, c, T, k = 20, 4, 3, 50, 5
	a, cat, err := HomogeneousPermutation(rng, n, d, c, T, k)
	if err != nil {
		t.Fatal(err)
	}
	if cat.M != d*n/k {
		t.Fatalf("catalog m = %d, want %d", cat.M, d*n/k)
	}
	// Every box stores exactly d*c replicas.
	for b, l := range boxLoads(a) {
		if l != d*c {
			t.Errorf("box %d stores %d replicas, want %d", b, l, d*c)
		}
	}
	// Every stripe has exactly k replicas.
	for s, holders := range stripeLists(a) {
		if len(holders) != k {
			t.Errorf("stripe %d has %d replicas, want %d", s, len(holders), k)
		}
	}
	if a.Overflow != 0 {
		t.Errorf("permutation overflow = %d", a.Overflow)
	}
}

func TestPermutationDivisibilityError(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, _, err := HomogeneousPermutation(rng, 10, 3, 2, 50, 7); err == nil {
		t.Fatal("expected divisibility error")
	}
}

func TestPermutationSlotMismatch(t *testing.T) {
	rng := stats.NewRNG(1)
	cat := video.MustCatalog(4, 2, 10)
	if _, err := Permutation(rng, cat, []int{3, 3}, 1); err == nil {
		t.Fatal("expected slot mismatch error (6 slots, 8 replicas)")
	}
	if _, err := Permutation(rng, cat, []int{4, 4}, 1); err != nil {
		t.Fatalf("exact slots rejected: %v", err)
	}
	if _, err := Permutation(rng, cat, []int{4, -4}, 1); err == nil {
		t.Fatal("expected negative-slot error")
	}
	if _, err := Permutation(rng, cat, []int{4, 4}, 0); err == nil {
		t.Fatal("expected k>=1 error")
	}
}

func TestPermutationHeterogeneousSlots(t *testing.T) {
	rng := stats.NewRNG(3)
	cat := video.MustCatalog(6, 2, 10) // 12 stripes, k=2 -> 24 replicas
	slots := []int{12, 6, 6}
	a, err := Permutation(rng, cat, slots, 2)
	if err != nil {
		t.Fatal(err)
	}
	loads := boxLoads(a)
	for b, want := range slots {
		if loads[b] != want {
			t.Errorf("box %d load %d, want %d", b, loads[b], want)
		}
	}
}

func TestPermutationDeterminism(t *testing.T) {
	a1, _, err := HomogeneousPermutation(stats.NewRNG(42), 10, 2, 2, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, _ := HomogeneousPermutation(stats.NewRNG(42), 10, 2, 2, 20, 4)
	if !reflect.DeepEqual(stripeLists(a1), stripeLists(a2)) {
		t.Fatal("determinism broken: different holder lists")
	}
}

func TestIndependentAllocation(t *testing.T) {
	rng := stats.NewRNG(7)
	cat := video.MustCatalog(10, 4, 20)
	n := 30
	slots := make([]int, n)
	for i := range slots {
		slots[i] = 8 // 240 slots for 10*4*3 = 120 replicas: roomy
	}
	a, err := Independent(rng, cat, slots, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, holders := range stripeLists(a) {
		total += len(holders)
	}
	if total+a.Overflow != 3*cat.NumStripes() {
		t.Fatalf("replicas %d + overflow %d != %d", total, a.Overflow, 3*cat.NumStripes())
	}
	// No box exceeds its slots.
	for b, l := range boxLoads(a) {
		if l > slots[b] {
			t.Errorf("box %d over capacity: %d > %d", b, l, slots[b])
		}
	}
}

func TestIndependentTightOverflows(t *testing.T) {
	// With slots exactly equal to replicas, collisions are certain for
	// this size; overflow must be counted, never a capacity violation.
	rng := stats.NewRNG(11)
	cat := video.MustCatalog(20, 4, 20)
	n := 16
	slots := make([]int, n)
	for i := range slots {
		slots[i] = 20 * 4 * 2 / n
	}
	a, err := Independent(rng, cat, slots, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Overflow == 0 {
		t.Log("note: no overflow this seed (unlikely but legal)")
	}
	st := a.Stats()
	if st.Overflow != a.Overflow {
		t.Error("Stats does not propagate overflow")
	}
}

func TestIndependentErrors(t *testing.T) {
	rng := stats.NewRNG(1)
	cat := video.MustCatalog(2, 2, 10)
	if _, err := Independent(rng, cat, []int{0, 0}, 1); err == nil {
		t.Fatal("expected no-storage error")
	}
	if _, err := Independent(rng, cat, []int{4}, 0); err == nil {
		t.Fatal("expected k>=1 error")
	}
	if _, err := Independent(rng, cat, []int{-1}, 1); err == nil {
		t.Fatal("expected negative-slot error")
	}
}

func TestFullReplicationRoundRobin(t *testing.T) {
	cat := video.MustCatalog(2, 2, 10) // 4 stripes
	slots := []int{4, 4, 4, 4}
	a, err := FullReplication(cat, slots, 4) // 16 replicas over 16 slots
	if err != nil {
		t.Fatal(err)
	}
	for s, holders := range stripeLists(a) {
		if len(holders) != 4 {
			t.Errorf("stripe %d has %d replicas", s, len(holders))
		}
	}
	for b, l := range boxLoads(a) {
		if l != 4 {
			t.Errorf("box %d load %d", b, l)
		}
	}
}

func TestFullReplicationExhaustion(t *testing.T) {
	cat := video.MustCatalog(4, 2, 10)
	if _, err := FullReplication(cat, []int{3}, 1); err == nil {
		t.Fatal("expected storage-exhaustion error")
	}
	if _, err := FullReplication(cat, []int{8}, 0); err == nil {
		t.Fatal("expected k>=1 error")
	}
}

func TestStoresAndAccessors(t *testing.T) {
	rng := stats.NewRNG(5)
	a, cat, err := HomogeneousPermutation(rng, 6, 2, 2, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Catalog() != cat {
		t.Error("Catalog accessor mismatch")
	}
	if a.NumBoxes() != 6 {
		t.Errorf("NumBoxes = %d", a.NumBoxes())
	}
	for s := video.StripeID(0); int(s) < cat.NumStripes(); s++ {
		if a.Replicas(s) != 3 {
			t.Errorf("Replicas(%d) = %d", s, a.Replicas(s))
		}
		for _, b := range a.Holders(s) {
			if !a.Stores(int(b), s) {
				t.Errorf("Stores(%d,%d) = false for a stored replica", b, s)
			}
		}
	}
	if a.Stores(0, 0) {
		// Only a problem if box 0 genuinely does not store stripe 0.
		found := false
		for _, b := range a.Holders(0) {
			if b == 0 {
				found = true
			}
		}
		if !found {
			t.Error("Stores returned true for non-stored stripe")
		}
	}
}

func TestStatsSummary(t *testing.T) {
	rng := stats.NewRNG(13)
	a, _, err := HomogeneousPermutation(rng, 12, 3, 2, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.MaxBoxLoad != 6 || st.BoxLoad.Mean != 6 {
		t.Errorf("box load stats wrong: %+v", st)
	}
	if st.MinStripes != 4 || st.StripeLoad.Mean != 4 {
		t.Errorf("stripe load stats wrong: %+v", st)
	}
}

// Property: permutation allocation is always exactly balanced and complete.
func TestQuickPermutationBalance(t *testing.T) {
	f := func(seed uint64, nRaw, dRaw, cRaw, kRaw uint8) bool {
		n := int(nRaw%20) + 2
		d := int(dRaw%4) + 1
		c := int(cRaw%5) + 1
		k := int(kRaw%4) + 1
		if (d*n)%k != 0 {
			return true // skip invalid combinations
		}
		a, cat, err := HomogeneousPermutation(stats.NewRNG(seed), n, d, c, 10, k)
		if err != nil {
			return false
		}
		for _, l := range boxLoads(a) {
			if l != d*c {
				return false
			}
		}
		for s := 0; s < cat.NumStripes(); s++ {
			if a.Replicas(video.StripeID(s)) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: independent allocation never overfills a box and conserves
// replicas + overflow.
func TestQuickIndependentConservation(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		rng := stats.NewRNG(seed)
		n := int(nRaw%15) + 2
		k := int(kRaw%3) + 1
		cat := video.MustCatalog(6, 3, 10)
		slots := make([]int, n)
		for i := range slots {
			slots[i] = 2 + rng.Intn(10)
		}
		a, err := Independent(rng, cat, slots, k)
		if err != nil {
			return false
		}
		placed := 0
		for b, l := range boxLoads(a) {
			if l > slots[b] {
				return false
			}
			placed += l
		}
		return placed+a.Overflow == k*cat.NumStripes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// boxLoads counts the replicas each box stores, read off Holders.
func boxLoads(a *Allocation) []int {
	loads := make([]int, a.NumBoxes())
	for s := range a.NumStripes() {
		for _, b := range a.Holders(video.StripeID(s)) {
			loads[b]++
		}
	}
	return loads
}

// stripeLists copies every stripe's holders into its own slice.
func stripeLists(a *Allocation) [][]int32 {
	lists := make([][]int32, a.NumStripes())
	for s := range lists {
		lists[s] = append([]int32{}, a.Holders(video.StripeID(s))...)
	}
	return lists
}

// Holders aliases the flat table, so its capacity must end with the
// stripe: an append to one stripe's holders may not reach the next.
func TestHoldersAppendLeavesNextStripe(t *testing.T) {
	a, cat, err := HomogeneousPermutation(stats.NewRNG(3), 8, 2, 2, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := stripeLists(a)
	for s := range cat.NumStripes() {
		grown := append(a.Holders(video.StripeID(s)), -1, -2)
		if len(grown) != len(before[s])+2 {
			t.Fatalf("stripe %d: append gave %d holders", s, len(grown))
		}
	}
	if got := stripeLists(a); !reflect.DeepEqual(got, before) {
		t.Fatalf("appending to Holders rewrote the table:\n got %v\nwant %v", got, before)
	}
}

// The flat table must hold, stripe for stripe, what the same draws give
// when every stripe's list is grown by append: for Independent, including
// the replicas that overflow and the stripes left with none; for
// Permutation, including ShuffleInts standing in for Perm.
func TestTablesMatchAppendReference(t *testing.T) {
	independentRef := func(seed uint64, cat video.Catalog, slots []int, k int) ([][]int32, int) {
		rng := stats.NewRNG(seed)
		weights := make([]float64, len(slots))
		for b, s := range slots {
			weights[b] = float64(s)
		}
		ref, used, overflow := make([][]int32, cat.NumStripes()), make([]int, len(slots)), 0
		for s := range ref {
			for range k {
				b := rng.WeightedChoice(weights)
				if used[b] >= slots[b] {
					overflow++
					continue
				}
				used[b]++
				ref[s] = append(ref[s], int32(b))
			}
		}
		return ref, overflow
	}
	permutationRef := func(seed uint64, cat video.Catalog, slots []int, k int) [][]int32 {
		var owner []int32
		for b, s := range slots {
			for range s {
				owner = append(owner, int32(b))
			}
		}
		p := make([]int, len(owner))
		for i := range p {
			p[i] = i
		}
		stats.NewRNG(seed).ShuffleInts(p)
		ref := make([][]int32, cat.NumStripes())
		for j, slot := range p {
			ref[j/k] = append(ref[j/k], owner[slot])
		}
		return ref
	}
	for _, tc := range []struct {
		name        string
		cat         video.Catalog
		slots       []int
		k           int
		emptyStripe bool // some stripe must end with no holder
	}{
		{"roomy", video.MustCatalog(10, 4, 20), []int{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}, 3, false},
		{"tight", video.MustCatalog(20, 4, 20), []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, 2, false},
		{"starved", video.MustCatalog(8, 2, 10), []int{1, 2, 0, 1}, 1, true},
		{"uneven", video.MustCatalog(6, 3, 10), []int{1, 9, 3, 2, 7}, 2, false},
	} {
		for seed := uint64(1); seed <= 5; seed++ {
			a, err := Independent(stats.NewRNG(seed), tc.cat, tc.slots, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			ref, overflow := independentRef(seed, tc.cat, tc.slots, tc.k)
			for s := range ref {
				if ref[s] == nil {
					ref[s] = []int32{}
				}
			}
			if got := stripeLists(a); !reflect.DeepEqual(got, ref) || a.Overflow != overflow {
				t.Errorf("%s seed %d: Independent gave %v (overflow %d), reference %v (overflow %d)",
					tc.name, seed, got, a.Overflow, ref, overflow)
			}
			if st := a.Stats(); tc.emptyStripe && st.MinStripes != 0 {
				t.Errorf("%s seed %d: MinStripes %d, want a stripe with no holder", tc.name, seed, st.MinStripes)
			}

			total := 0
			for _, s := range tc.slots {
				total += s
			}
			if total%tc.k != 0 || total/tc.k%tc.cat.C != 0 {
				continue
			}
			pcat := video.MustCatalog(total/tc.k/tc.cat.C, tc.cat.C, tc.cat.T)
			p, err := Permutation(stats.NewRNG(seed), pcat, tc.slots, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := stripeLists(p), permutationRef(seed, pcat, tc.slots, tc.k); !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: Permutation gave %v, reference %v", tc.name, seed, got, want)
			}
		}
	}
}

// Permutation's holders are its owner table read through Perm: box b owns
// the slotsPerBox[b] slots after the boxes before it, and replica j of the
// table (stripe j/k) lands in slot Perm(k·m·c)[j]. So the allocation draws
// exactly the permutation stats.Perm pins to ShuffleInts.
func TestPermutationHoldersFollowPerm(t *testing.T) {
	for _, tc := range []struct{ n, d, c, k int }{{1, 2, 3, 2}, {20, 4, 3, 5}, {300, 2, 4, 4}, {1000, 3, 8, 6}} {
		for _, seed := range []uint64{1, 7, 99} {
			a, cat, err := HomogeneousPermutation(stats.NewRNG(seed), tc.n, tc.d, tc.c, 10, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			var owner []int32
			for b := range tc.n {
				for range tc.d * tc.c {
					owner = append(owner, int32(b))
				}
			}
			perm := stats.NewRNG(seed).Perm(len(owner))
			for s := range cat.NumStripes() {
				for i, b := range a.Holders(video.StripeID(s)) {
					if want := owner[perm[s*tc.k+i]]; b != want {
						t.Fatalf("n=%d seed %d: stripe %d holder %d is box %d, the owner table gives %d", tc.n, seed, s, i, b, want)
					}
				}
			}
		}
	}
}
