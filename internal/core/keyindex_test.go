package core

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/video"
)

// keyTable is a keyIndex with the slab its ids point into: every id a
// test stores is a fresh slab entry holding the key it is stored under,
// which is how the store keeps the table.
type keyTable struct {
	keyIndex
	slab []idxEntry
}

func newKeyTable() *keyTable { return &keyTable{keyIndex: newKeyIndex(0)} }

// split unpacks an availKey.
func split(key uint64) (video.StripeID, int32) { return video.StripeID(key >> 32), int32(uint32(key)) }

// entryOf files a fresh slab entry for key and returns its id.
func (k *keyTable) entryOf(key uint64) int32 {
	st, box := split(key)
	k.slab = append(k.slab, idxEntry{entry: entry{box: box}, stripe: st})
	return int32(len(k.slab) - 1)
}

// put stores a fresh id under key and returns it with the id it replaced.
func (k *keyTable) put(key uint64) (id, prev int32) {
	id = k.entryOf(key)
	return id, k.keyIndex.swap(k.slab, id)
}

func (k *keyTable) get(key uint64) int32 {
	st, box := split(key)
	return k.keyIndex.get(k.slab, st, box)
}

func (k *keyTable) find(key uint64) int {
	st, box := split(key)
	return k.keyIndex.find(k.slab, st, box)
}

func (k *keyTable) del(i int) { k.keyIndex.del(k.slab, i) }

func (k *keyTable) home(key uint64) int { return k.keyIndex.home(split(key)) }

// checkKeyIndex holds the table against the reference map in full: every
// key the map has is found with the map's id — which also proves no probe
// run has a hole in it — and the table holds nothing else.
func checkKeyIndex(t *testing.T, tab *keyTable, ref map[uint64]int32, when string) {
	t.Helper()
	if tab.live != len(ref) {
		t.Fatalf("%s: table counts %d keys, reference has %d", when, tab.live, len(ref))
	}
	occupied := 0
	for _, id := range tab.ids {
		if id >= 0 {
			occupied++
		}
	}
	if occupied != len(ref) {
		t.Fatalf("%s: %d occupied slots, reference has %d keys", when, occupied, len(ref))
	}
	if 2*tab.live > len(tab.ids) {
		t.Fatalf("%s: %d keys in %d slots exceeds load 1/2", when, tab.live, len(tab.ids))
	}
	for key, want := range ref {
		if got := tab.get(key); got != want {
			t.Fatalf("%s: get(%#x) = %d, reference %d", when, key, got, want)
		}
		if i := tab.find(key); i < 0 || tab.ids[i] != want {
			t.Fatalf("%s: find(%#x) = slot %d, want the slot holding %d", when, key, i, want)
		}
	}
}

// keysHomedAt returns n distinct keys whose preferred slot in tab's current
// slot array is one of homes.
func keysHomedAt(tab *keyTable, n int, homes ...int) []uint64 {
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
		tab := newKeyTable()
		size := len(tab.ids)
		ref := map[uint64]int32{}
		// Six keys homed at the last two slots wrap into slots 0..3; two
		// keys homed at slot 1 sit behind them and must not be pulled
		// back past their own home when the run shrinks.
		keys := append(keysHomedAt(tab, 6, size-2, size-1), keysHomedAt(tab, 2, 1)...)
		for _, key := range keys {
			id, prev := tab.put(key)
			if prev != -1 {
				t.Fatalf("swap of new key %#x returned %d", key, prev)
			}
			ref[key] = id
		}
		if len(tab.ids) != size {
			t.Fatalf("table grew to %d slots; the run no longer wraps", len(tab.ids))
		}
		if tab.ids[size-1] < 0 || tab.ids[0] < 0 || tab.ids[3] < 0 {
			t.Fatal("probe run does not wrap the end of the slot array")
		}
		checkKeyIndex(t, tab, ref, "built")
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
			checkKeyIndex(t, tab, ref, "after delete")
		}
	}
}

// TestKeyIndexEdges pins key 0 — (stripe 0, box 0), whose slot is
// indistinguishable from a zeroed one except by val — and a delete that
// lands right after the table doubled.
func TestKeyIndexEdges(t *testing.T) {
	tab := newKeyTable()
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
	first, prev := tab.put(zero)
	if first != 0 || prev != -1 {
		t.Fatalf("first swap of key 0 on an empty table stored id %d and returned %d", first, prev)
	}
	second, prev := tab.put(zero)
	if prev != first {
		t.Fatalf("second swap of key 0 returned %d, want the previous head %d", prev, first)
	}
	ref[zero] = second
	checkKeyIndex(t, tab, ref, "key 0")

	size := len(tab.ids)
	var last uint64
	for key := uint64(1); len(tab.ids) == size; key++ {
		last = key<<32 | key
		ref[last], _ = tab.put(last)
	}
	checkKeyIndex(t, tab, ref, "grown")
	tab.del(tab.find(last))
	delete(ref, last)
	checkKeyIndex(t, tab, ref, "delete after growth")
	tab.del(tab.find(zero))
	delete(ref, zero)
	checkKeyIndex(t, tab, ref, "key 0 deleted")
	if got := tab.get(zero); got != -1 {
		t.Fatalf("deleted key 0 maps to %d", got)
	}

	if sized := newKeyIndex(1000); len(sized.ids) < 2000 {
		t.Fatalf("newKeyIndex(1000) has %d slots: would grow before holding 1000 keys", len(sized.ids))
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
		tab := newKeyTable()
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
				if !present {
					want = -1
				}
				id, prev := tab.put(key)
				if prev != want {
					t.Fatalf("seed %d op %d: swap(%#x) returned %d, reference held %d", seed, op, key, prev, want)
				}
				ref[key] = id
			default:
				slot := tab.find(key)
				if (slot >= 0) != present {
					t.Fatalf("seed %d op %d: find(%#x) = %d, reference present=%v", seed, op, key, slot, present)
				}
				if !present {
					continue
				}
				if rng.Bool(0.2) {
					// The store's head replacement on removal: another
					// entry of the same key takes the slot.
					id := tab.entryOf(key)
					tab.ids[slot] = id
					ref[key] = id
				} else {
					tab.del(slot)
					delete(ref, key)
				}
			}
			if op%4096 == 0 {
				checkKeyIndex(t, tab, ref, "periodic")
			}
		}
		checkKeyIndex(t, tab, ref, "final")
		if len(tab.ids) == keyIndexMinSlots {
			t.Fatalf("seed %d: table never grew", seed)
		}
	}
}
