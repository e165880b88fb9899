package core

import "math/bits"

// keyIndex is the (stripe, box) → chain-head table of the availability
// store: an open-addressed hash table with linear probing over a single
// slot array, so a lookup is one hashed cache line (four 16-byte slots)
// instead of a Go map's bucket walk. Keys are availKey values hashed by
// Fibonacci multiplication; the table keeps at least half its slots empty
// and doubles when the next insert would not. Deletion shifts the rest of
// the probe run back over the hole instead of leaving a tombstone, so probe
// lengths depend only on the keys present, never on how many were removed
// before them. A slot is empty when val < 0: entry ids are never negative.
type keyIndex struct {
	slots []keySlot
	shift uint8 // 64 − log2(len(slots))
	live  int
}

type keySlot struct {
	key uint64
	val int32
}

// keyIndexMinSlots is the smallest table (1 KB); sizes are powers of two.
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
	t.slots = make([]keySlot, size)
	for i := range t.slots {
		t.slots[i].val = -1
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.live = 0
}

// home is key's preferred slot.
func (t *keyIndex) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the slot holding key, or −1. The handle stays valid until
// the next swap or del.
func (t *keyIndex) find(key uint64) int {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val < 0 {
			return -1
		}
		if s.key == key {
			return i
		}
	}
}

// get returns key's value, or −1 when absent.
func (t *keyIndex) get(key uint64) int32 {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val < 0 || s.key == key {
			return s.val
		}
	}
}

// swap stores val (≥ 0) under key and returns the value it replaced, or −1
// when key was absent.
func (t *keyIndex) swap(key uint64, val int32) int32 {
	if 2*(t.live+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val < 0 {
			*s = keySlot{key: key, val: val}
			t.live++
			return -1
		}
		if s.key == key {
			prev := s.val
			s.val = val
			return prev
		}
	}
}

// del empties the occupied slot i, then closes the hole: every later slot
// of the same probe run whose home lies at or before the hole (cyclically)
// moves back into it, so no lookup ever has to probe past an empty slot.
func (t *keyIndex) del(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := t.slots[j]
		if s.val < 0 {
			break
		}
		// s may fill the hole only if its home is not inside (i, j].
		if (j-t.home(s.key))&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i].val = -1
	t.live--
}

func (t *keyIndex) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	for _, s := range old {
		if s.val >= 0 {
			t.swap(s.key, s.val)
		}
	}
}
