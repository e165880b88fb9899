package core

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/video"
)

// checkKeyIndex holds the table against the reference map in full: every
// key the map has is found with the map's value — which also proves no
// probe run has a hole in it — and the table holds nothing else.
func checkKeyIndex(t *testing.T, tab *keyIndex, ref map[uint64]int32, when string) {
	t.Helper()
	if tab.live != len(ref) {
		t.Fatalf("%s: table counts %d keys, reference has %d", when, tab.live, len(ref))
	}
	occupied := 0
	for _, s := range tab.slots {
		if s.val >= 0 {
			occupied++
		}
	}
	if occupied != len(ref) {
		t.Fatalf("%s: %d occupied slots, reference has %d keys", when, occupied, len(ref))
	}
	if 2*tab.live > len(tab.slots) {
		t.Fatalf("%s: %d keys in %d slots exceeds load 1/2", when, tab.live, len(tab.slots))
	}
	for key, want := range ref {
		if got := tab.get(key); got != want {
			t.Fatalf("%s: get(%#x) = %d, reference %d", when, key, got, want)
		}
		if i := tab.find(key); i < 0 || tab.slots[i].key != key || tab.slots[i].val != want {
			t.Fatalf("%s: find(%#x) = slot %d, want the slot holding %d", when, key, i, want)
		}
	}
}

// keysHomedAt returns n distinct keys whose preferred slot in tab's current
// slot array is one of homes.
func keysHomedAt(tab *keyIndex, n int, homes ...int) []uint64 {
	var out []uint64
	for key := uint64(1); len(out) < n; key++ {
		h := tab.home(key)
		for _, want := range homes {
			if h == want {
				out = append(out, key)
				break
			}
		}
	}
	return out
}

// TestKeyIndexBackwardShift drives the deletions backward-shift gets wrong
// when its cyclic home test is off by one: a probe run that wraps the end
// of the slot array, losing its first, a middle, or its last slot, with
// runs of other homes interleaved behind it.
func TestKeyIndexBackwardShift(t *testing.T) {
	for victim := 0; victim < 8; victim++ {
		tab := newKeyIndex(0)
		size := len(tab.slots)
		ref := map[uint64]int32{}
		// Six keys homed at the last two slots wrap into slots 0..3; two
		// keys homed at slot 1 sit behind them and must not be pulled
		// back past their own home when the run shrinks.
		keys := append(keysHomedAt(&tab, 6, size-2, size-1), keysHomedAt(&tab, 2, 1)...)
		for i, key := range keys {
			if prev := tab.swap(key, int32(i)); prev != -1 {
				t.Fatalf("swap of new key %#x returned %d", key, prev)
			}
			ref[key] = int32(i)
		}
		if len(tab.slots) != size {
			t.Fatalf("table grew to %d slots; the run no longer wraps", len(tab.slots))
		}
		if tab.slots[size-1].val < 0 || tab.slots[0].val < 0 || tab.slots[3].val < 0 {
			t.Fatal("probe run does not wrap the end of the slot array")
		}
		checkKeyIndex(t, &tab, ref, "built")
		// Delete keys[victim], then every other key in insertion order.
		order := []int{victim}
		for i := range keys {
			if i != victim {
				order = append(order, i)
			}
		}
		for _, i := range order {
			tab.del(tab.find(keys[i]))
			delete(ref, keys[i])
			if got := tab.get(keys[i]); got != -1 {
				t.Fatalf("victim %d: deleted key %#x still maps to %d", victim, keys[i], got)
			}
			checkKeyIndex(t, &tab, ref, "after delete")
		}
	}
}

// TestKeyIndexEdges pins key 0 — (stripe 0, box 0), whose slot is
// indistinguishable from a zeroed one except by val — and a delete that
// lands right after the table doubled.
func TestKeyIndexEdges(t *testing.T) {
	tab := newKeyIndex(0)
	ref := map[uint64]int32{}
	zero := availKey(0, 0)
	if zero != 0 {
		t.Fatalf("availKey(0, 0) = %#x", zero)
	}
	if got := tab.get(zero); got != -1 {
		t.Fatalf("empty table: get(0) = %d", got)
	}
	if tab.find(zero) != -1 {
		t.Fatal("empty table: find(0) found a slot")
	}
	if prev := tab.swap(zero, 0); prev != -1 {
		t.Fatalf("swap(0, 0) on empty table returned %d", prev)
	}
	ref[zero] = 0
	if prev := tab.swap(zero, 7); prev != 0 {
		t.Fatalf("swap(0, 7) returned %d, want the previous head 0", prev)
	}
	ref[zero] = 7
	checkKeyIndex(t, &tab, ref, "key 0")

	size := len(tab.slots)
	var last uint64
	for key := uint64(1); len(tab.slots) == size; key++ {
		tab.swap(key<<32|key, int32(key))
		ref[key<<32|key] = int32(key)
		last = key<<32 | key
	}
	checkKeyIndex(t, &tab, ref, "grown")
	tab.del(tab.find(last))
	delete(ref, last)
	checkKeyIndex(t, &tab, ref, "delete after growth")
	tab.del(tab.find(zero))
	delete(ref, zero)
	checkKeyIndex(t, &tab, ref, "key 0 deleted")
	if got := tab.get(zero); got != -1 {
		t.Fatalf("deleted key 0 maps to %d", got)
	}

	if sized := newKeyIndex(1000); len(sized.slots) < 2000 {
		t.Fatalf("newKeyIndex(1000) has %d slots: would grow before holding 1000 keys", len(sized.slots))
	}
}

// TestKeyIndexMatchesMap is the randomized differential: mixed get / swap /
// overwrite / delete against map[uint64]int32, every return value compared
// as it happens and the whole table every few thousand operations. Keys are
// availKey pairs from a small (stripe, box) universe — dense like the
// store's, colliding in the low bits of both halves — so the live set
// swings between empty and several doublings.
func TestKeyIndexMatchesMap(t *testing.T) {
	const ops = 120_000
	for _, seed := range []uint64{1, 2, 3, 0xfeed} {
		rng := stats.NewRNG(seed)
		tab := newKeyIndex(0)
		ref := map[uint64]int32{}
		stripes, boxes := 40+rng.Intn(40), 60+rng.Intn(200)
		// The insert share drifts so the table fills, drains, and refills.
		for op := 0; op < ops; op++ {
			key := availKey(video.StripeID(rng.Intn(stripes)), int32(rng.Intn(boxes)))
			insertShare := 0.25 + 0.5*float64((op/15_000)%2)
			want, present := ref[key]
			switch {
			case rng.Bool(0.3):
				got := tab.get(key)
				if !present {
					want = -1
				}
				if got != want {
					t.Fatalf("seed %d op %d: get(%#x) = %d, reference %d", seed, op, key, got, want)
				}
			case rng.Bool(insertShare):
				val := int32(rng.Intn(1 << 20))
				if !present {
					want = -1
				}
				if prev := tab.swap(key, val); prev != want {
					t.Fatalf("seed %d op %d: swap(%#x) returned %d, reference held %d", seed, op, key, prev, want)
				}
				ref[key] = val
			default:
				slot := tab.find(key)
				if (slot >= 0) != present {
					t.Fatalf("seed %d op %d: find(%#x) = %d, reference present=%v", seed, op, key, slot, present)
				}
				if !present {
					continue
				}
				if rng.Bool(0.2) {
					val := int32(rng.Intn(1 << 20))
					tab.slots[slot].val = val
					ref[key] = val
				} else {
					tab.del(slot)
					delete(ref, key)
				}
			}
			if op%4096 == 0 {
				checkKeyIndex(t, &tab, ref, "periodic")
			}
		}
		checkKeyIndex(t, &tab, ref, "final")
		if len(tab.slots) == keyIndexMinSlots {
			t.Fatalf("seed %d: table never grew", seed)
		}
	}
}
