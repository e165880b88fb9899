package core

import (
	"math/bits"

	"repro/internal/video"
)

// keyIndex is the (stripe, box) → chain-head table of the availability
// store: an open-addressed hash table with linear probing over a single
// array of entry ids, so a lookup is one hashed cache line (sixteen 4-byte
// slots) instead of a Go map's bucket walk. A slot holds only the id of
// its key's newest entry; the key is read back from that entry in the
// store's slab, which the caller passes in, so a slot is 4 bytes rather
// than a 16-byte (key, id) pair. A hit costs nothing extra for that: the
// chain walk that follows reads the same entry. Keys are availKey values
// hashed by Fibonacci multiplication; the table keeps at least half its
// slots empty and doubles when the next insert would not. Deletion shifts
// the rest of the probe run back over the hole instead of leaving a
// tombstone, so probe lengths depend only on the keys present, never on
// how many were removed before them. A slot is empty when its id is
// negative.
type keyIndex struct {
	ids   []int32
	shift uint8 // 64 − log2(len(ids))
	live  int
}

// keyIndexMinSlots is the smallest table (256 B); sizes are powers of two.
const keyIndexMinSlots = 64

// newKeyIndex returns a table that holds n keys without growing.
func newKeyIndex(n int) keyIndex {
	size := keyIndexMinSlots
	for size < 2*n {
		size *= 2
	}
	var t keyIndex
	t.alloc(size)
	return t
}

func (t *keyIndex) alloc(size int) {
	t.ids = make([]int32, size)
	for i := range t.ids {
		t.ids[i] = -1
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.live = 0
}

// home is the preferred slot of key (st, box).
func (t *keyIndex) home(st video.StripeID, box int32) int {
	return int(availKey(st, box) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the slot holding key (st, box), or −1. The handle stays
// valid until the next swap or del.
func (t *keyIndex) find(slab []idxEntry, st video.StripeID, box int32) int {
	mask := len(t.ids) - 1
	for i := t.home(st, box); ; i = (i + 1) & mask {
		id := t.ids[i]
		if id < 0 {
			return -1
		}
		if e := &slab[id]; e.stripe == st && e.box == box {
			return i
		}
	}
}

// get returns the newest entry id of key (st, box), or −1 when absent.
func (t *keyIndex) get(slab []idxEntry, st video.StripeID, box int32) int32 {
	mask := len(t.ids) - 1
	for i := t.home(st, box); ; i = (i + 1) & mask {
		id := t.ids[i]
		if id < 0 {
			return -1
		}
		if e := &slab[id]; e.stripe == st && e.box == box {
			return id
		}
	}
}

// swap makes entry id (≥ 0, already in slab) the newest of its key and
// returns the id it replaced, or −1 when the key was absent.
func (t *keyIndex) swap(slab []idxEntry, id int32) int32 {
	if 2*(t.live+1) > len(t.ids) {
		t.grow(slab)
	}
	st, box := slab[id].stripe, slab[id].box
	mask := len(t.ids) - 1
	for i := t.home(st, box); ; i = (i + 1) & mask {
		cur := t.ids[i]
		if cur < 0 {
			t.ids[i] = id
			t.live++
			return -1
		}
		if e := &slab[cur]; e.stripe == st && e.box == box {
			t.ids[i] = id
			return cur
		}
	}
}

// del empties the occupied slot i, then closes the hole: every later slot
// of the same probe run whose home lies at or before the hole (cyclically)
// moves back into it, so no lookup ever has to probe past an empty slot.
func (t *keyIndex) del(slab []idxEntry, i int) {
	mask := len(t.ids) - 1
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		id := t.ids[j]
		if id < 0 {
			break
		}
		// id may fill the hole only if its home is not inside (i, j].
		if (j-t.home(slab[id].stripe, slab[id].box))&mask >= (j-i)&mask {
			t.ids[i] = id
			i = j
		}
	}
	t.ids[i] = -1
	t.live--
}

func (t *keyIndex) grow(slab []idxEntry) {
	old := t.ids
	t.alloc(2 * len(old))
	for _, id := range old {
		if id >= 0 {
			t.swap(slab, id)
		}
	}
}
