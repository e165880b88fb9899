package core

import (
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/video"
)

// scanRetire is the retirement loop Step ran before the retire ring: walk
// the live list, swap-removing the slot at the cursor while it is due and
// stepping past it otherwise. It returns the slots in the order they
// retire, the list left behind, and how many retirements swapped a due
// slot in from the tail.
func scanRetire(live []int32, due map[int32]bool) (order, rest []int32, chained int) {
	rest = slices.Clone(live)
	for i := 0; i < len(rest); {
		if !due[rest[i]] {
			i++
			continue
		}
		order = append(order, rest[i])
		rest[i] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		if i < len(rest) && due[rest[i]] {
			chained++
		}
	}
	return order, rest, chained
}

// TestRetireOrderMatchesScan holds retireDue's order replay to the scan it
// replaced, over random live lists and due sets — half of them ending in a
// run of due slots, so that a retirement swaps in a due slot from the tail
// and the replay must retire it at that position before moving on. Both
// must retire the same slots in the same order (freeSlots records it) and
// leave the same live list.
func TestRetireOrderMatchesScan(t *testing.T) {
	const T = 9
	sys := buildHomogeneous(t, 3, 12, 1, 4, T, 2, 2.0, 1.5, func(cfg *Config) {
		cfg.DisableCacheServing = true
	})
	sys.clock = 2 * T // every base below stays positive
	rng := stats.NewRNG(31)
	chained := 0
	for inst := 0; inst < 10_000; inst++ {
		k := 1 + rng.Intn(40)
		for i := 0; i < k; i++ {
			sys.issueRequest(video.StripeID(rng.Intn(sys.cat.NumStripes())),
				int32(rng.Intn(sys.n)), int32(rng.Intn(sys.n)), -1)
		}
		// Any order: swap-removals leave the live list shuffled. The
		// matcher's list is rebuilt in a random order (nothing is matched:
		// cache serving is off and no round runs).
		shuffled := slices.Clone(sys.matcher.ActiveLefts())
		for _, slot := range shuffled {
			sys.matcher.RemoveLeft(int(slot))
		}
		for _, p := range rng.Perm(k) {
			sys.matcher.AddLeft(int(shuffled[p]))
		}
		density := []float64{0.1, 0.5, 0.9}[rng.Intn(3)]
		tail := 0
		if rng.Bool(0.5) {
			tail = 1 + rng.Intn(k)
		}
		due := map[int32]bool{}
		for pos, slot := range sys.matcher.ActiveLefts() {
			if pos >= k-tail || rng.Bool(density) {
				due[slot] = true
				sys.reqBase[slot] = sys.clock - T
			} else {
				sys.reqBase[slot] = sys.clock - int32(rng.Intn(T))
			}
		}
		for b := range sys.retireRing {
			sys.retireRing[b] = sys.retireRing[b][:0]
		}
		for _, slot := range sys.matcher.ActiveLefts() {
			sys.bucketRetire(slot)
		}

		wantOrder, wantList, chains := scanRetire(sys.matcher.ActiveLefts(), due)
		chained += chains
		freed := len(sys.freeSlots)
		sys.retireDue()
		if got := sys.freeSlots[freed:]; !slices.Equal(got, wantOrder) || !slices.Equal(sys.matcher.ActiveLefts(), wantList) {
			t.Fatalf("instance %d: replay retired %v leaving %v; the scan retires %v leaving %v",
				inst, got, sys.matcher.ActiveLefts(), wantOrder, wantList)
		}
		for sys.matcher.ActiveCount() > 0 {
			sys.retireRequest(sys.matcher.ActiveLefts()[0])
		}
	}
	if chained < 1000 {
		t.Fatalf("only %d retirements swapped in a due slot: the tail chain is barely exercised", chained)
	}
}

// liveSlots is every slot's liveness, indexed by slot.
func liveSlots(s *System) []bool {
	live := make([]bool, len(s.reqStripe))
	for slot := range live {
		live[slot] = s.matcher.Active(slot)
	}
	return live
}

// checkRetireRing holds the retire ring to its invariant between Steps:
// every live slot is filed exactly once, in a bucket that drains no later
// than the clock at which its progress reaches T, base+T — and exactly
// then unless it stalled since it was issued (a stalled slot moves on
// lazily, when the bucket it sits in drains). It returns how many slots
// sit in a bucket that drains before they are due.
func checkRetireRing(t *testing.T, s *System) (early int) {
	t.Helper()
	T, n := int32(s.cat.T), int32(len(s.retireRing))
	seen := map[int32]bool{}
	for b, bucket := range s.retireRing {
		drains := s.clock + ((int32(b)-s.clock)%n+n)%n
		for _, slot := range bucket {
			if !s.matcher.Active(int(slot)) || seen[slot] {
				t.Fatalf("round %d: slot %d (live %v) filed twice or after retiring", s.round, slot, s.matcher.Active(int(slot)))
			}
			seen[slot] = true
			due, stalled := s.reqBase[slot]+T, s.reqBase[slot] != s.reqStart[slot]
			if drains > due || !stalled && drains != due {
				t.Fatalf("round %d: slot %d (stalled %v) is due at clock %d, its bucket drains at %d",
					s.round, slot, stalled, due, drains)
			}
			if drains < due {
				early++
			}
		}
	}
	if len(seen) != s.matcher.ActiveCount() {
		t.Fatalf("round %d: ring files %d slots, %d are live", s.round, len(seen), s.matcher.ActiveCount())
	}
	return early
}
