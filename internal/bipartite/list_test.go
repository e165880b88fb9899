package bipartite

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/stats"
)

// The per-right assignment lists live in the matcher's arena, headed by
// rightRec. Their element order is behaviour (eviction is tail-first, the
// searches enumerate them), so these tests hold the
// arena lists element for element against plain swap-remove slices.

func TestRightRecIs32Bytes(t *testing.T) {
	if size := unsafe.Sizeof(rightRec{}); size != 32 {
		t.Fatalf("rightRec is %d bytes, want 32 (two records per cache line)", size)
	}
}

// completeAdj has every edge and enumerates none: Verify's edge check
// passes for any assignment the model test makes.
type completeAdj struct{}

func (completeAdj) BeginServers(int, *Cursor) {}
func (completeAdj) NextServer(*Cursor) int    { return -1 }
func (completeAdj) CanServe(int, int) bool    { return true }

// listModel is the reference: one slice per right, append on assign,
// swap-remove on unassign.
type listModel struct {
	lists [][]int32
	caps  []int64
	at    map[int32]int // left -> right
}

func (lm *listModel) unassign(l int32) {
	r := lm.at[l]
	list := lm.lists[r]
	for i, x := range list {
		if x == l {
			list[i] = list[len(list)-1]
			lm.lists[r] = list[:len(list)-1]
			break
		}
	}
	delete(lm.at, l)
}

func (lm *listModel) assign(l int32, r int) {
	if _, ok := lm.at[l]; ok {
		lm.unassign(l)
	}
	lm.lists[r] = append(lm.lists[r], l)
	lm.at[l] = r
}

func compareLists(t *testing.T, m *Matcher, lm *listModel, when string) {
	t.Helper()
	for r := range lm.lists {
		got, want := m.AssignedLefts(r), lm.lists[r]
		if !slices.Equal(got, want) {
			t.Fatalf("%s: right %d holds %v, reference %v", when, r, got, want)
		}
		if m.Load(r) != int64(len(want)) || m.Capacity(r) != lm.caps[r] {
			t.Fatalf("%s: right %d load/cap %d/%d, reference %d/%d",
				when, r, m.Load(r), m.Capacity(r), len(want), lm.caps[r])
		}
	}
}

func TestAssignmentListsMatchModel(t *testing.T) {
	const nL, nR, ops = 400, 7, 30_000
	for _, seed := range []uint64{1, 2, 3} {
		rng := stats.NewRNG(seed)
		lm := &listModel{lists: make([][]int32, nR), caps: make([]int64, nR), at: map[int32]int{}}
		for r := range lm.caps {
			lm.caps[r] = int64(r) // right 0 starts at capacity 0: a first carve of one slot
		}
		m := NewMatcher(lm.caps)
		for l := 0; l < nL; l++ {
			m.AddLeft(l)
		}
		recarves := 0
		for op := 0; op < ops; op++ {
			l, r := rng.Intn(nL), rng.Intn(nR)
			carved := m.rights[r].lcap
			var when string
			switch k := rng.Intn(100); {
			case k < 40: // assign, or move, onto spare capacity
				when = "assign"
				if len(lm.lists[r]) >= int(lm.caps[r]) {
					continue
				}
				m.assign(l, r)
				lm.assign(int32(l), r)
			case k < 60:
				when = "unassign"
				if m.Server(l) == Unassigned {
					continue
				}
				m.unassign(l)
				lm.unassign(int32(l))
			case k < 70: // the left departs and its id is recycled
				when = "RemoveLeft"
				m.RemoveLeft(l)
				if _, ok := lm.at[int32(l)]; ok {
					lm.unassign(int32(l))
				}
				m.AddLeft(l)
			case k < 80: // lowering evicts tail-first
				when = "SetCapacity down"
				c := int64(rng.Intn(len(lm.lists[r]) + 1))
				victims := m.SetCapacity(r, c)
				lm.caps[r] = c
				for i := 0; len(lm.lists[r]) > int(c); i++ {
					tail := lm.lists[r][len(lm.lists[r])-1]
					if i >= len(victims) || victims[i] != int(tail) {
						t.Fatalf("seed %d op %d: SetCapacity(%d, %d) evicted %v, reference next evicts %d",
							seed, op, r, c, victims, tail)
					}
					lm.unassign(tail)
				}
			default: // raising past the carve: the next assigns re-carve
				when = "SetCapacity up"
				c := lm.caps[r] + int64(1+rng.Intn(40))
				if victims := m.SetCapacity(r, c); victims != nil {
					t.Fatalf("seed %d op %d: raising a capacity evicted %v", seed, op, victims)
				}
				lm.caps[r] = c
			}
			if carved > 0 && m.rights[r].lcap > carved {
				recarves++
			}
			compareLists(t, m, lm, when)
			if op%500 == 0 {
				if err := m.Verify(completeAdj{}); err != nil {
					t.Fatalf("seed %d op %d after %s: %v", seed, op, when, err)
				}
			}
		}
		if err := m.Verify(completeAdj{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if recarves == 0 {
			t.Fatalf("seed %d: no list ever outgrew its carve", seed)
		}
	}
}

// TestAssignmentListLongerThanABlock fills one right past the arena's
// block size: its re-carves span several block-table entries and must
// still read back, shrink and verify like any other list.
func TestAssignmentListLongerThanABlock(t *testing.T) {
	const n = arenaBlock + arenaBlock/2
	m := NewMatcher([]int64{2, n})
	for l := 0; l < n+2; l++ {
		m.AddLeft(l)
	}
	m.assign(n, 0)
	for l := 0; l < n; l++ {
		m.assign(l, 1)
	}
	m.assign(n+1, 0) // carved after the long list: must not overlap it
	lefts := m.AssignedLefts(1)
	if len(lefts) != n {
		t.Fatalf("long list has %d lefts, want %d", len(lefts), n)
	}
	for i, l := range lefts {
		if int(l) != i {
			t.Fatalf("long list position %d holds left %d", i, l)
		}
	}
	if got := m.AssignedLefts(0); len(got) != 2 || got[0] != n || got[1] != n+1 {
		t.Fatalf("short list holds %v", got)
	}
	if err := m.Verify(completeAdj{}); err != nil {
		t.Fatal(err)
	}
	// Swap-remove across the block boundary: the tail moves to the front.
	m.unassign(0)
	if got := m.AssignedLefts(1); len(got) != n-1 || got[0] != n-1 {
		t.Fatalf("after unassign(0): list starts with %d, length %d", got[0], len(got))
	}
	if victims := m.SetCapacity(1, 3); len(victims) != n-4 {
		t.Fatalf("SetCapacity evicted %d lefts, want %d", len(victims), n-4)
	}
	if err := m.Verify(completeAdj{}); err != nil {
		t.Fatal(err)
	}
}

// TestListCorruptionIsCaught breaks the layout's invariants one at a time:
// Verify names each, and unassign refuses to swap through a back-pointer
// that does not lead to its own left.
func TestListCorruptionIsCaught(t *testing.T) {
	build := func() *Matcher {
		m := NewMatcher([]int64{4, 4})
		for l := 0; l < 6; l++ {
			m.AddLeft(l)
			m.assign(l, l%2)
		}
		if err := m.Verify(completeAdj{}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name    string
		corrupt func(m *Matcher)
		want    string
	}{
		{"slot holds another left", func(m *Matcher) { *m.slot(m.posInRight[2]) = 4 }, "back-pointer corrupt"},
		{"back-pointer into another list", func(m *Matcher) { m.posInRight[2] = m.posInRight[1] }, "back-pointer corrupt"},
		{"back-pointer past the load", func(m *Matcher) { m.posInRight[2] = m.rights[0].base + m.rights[0].load }, "back-pointer corrupt"},
		{"load past the carve", func(m *Matcher) { m.rights[0].lcap = 2 }, "outside its carve"},
		{"carve past the arena", func(m *Matcher) { m.rights[1].lcap = int32(m.arenaNext) }, "outside its carve"},
	} {
		m := build()
		tc.corrupt(m)
		err := m.Verify(completeAdj{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}

	m := build()
	m.posInRight[2] = m.posInRight[4]
	defer func() {
		if recover() == nil {
			t.Fatal("unassign swapped through a back-pointer to another left's slot")
		}
	}()
	m.unassign(2)
}
