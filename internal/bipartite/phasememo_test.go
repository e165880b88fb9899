package bipartite

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// refAugmentAll is AugmentAll with the reference phases the production ones
// are pinned to: refBFSLayer labels the whole layer its free right sits on,
// and refDFSAugment checks every right's label, marks full rights of the
// last layer done, and walks every left's server list from the top.
func (m *Matcher) refAugmentAll(adj Adjacency) []int {
	m.trav.adj = adj
	hinter, hinted := adj.(Hinted)
	todo := m.direct(m.takeDirty(), hinter, hinted)
	for len(todo) > 0 {
		if !m.refBFSLayer(todo, hinter, hinted) {
			break
		}
		progressed := false
		for _, l := range todo {
			if m.assigned[l] != Unassigned || m.marks[l].visit != m.epoch || m.marks[l].level == consumed {
				continue
			}
			m.marks[l].level = consumed
			if m.refDFSAugment(l) {
				progressed = true
			}
		}
		if !progressed {
			panic("reference phase found no augmenting path")
		}
		rest := todo[:0]
		for _, l := range todo {
			if m.assigned[l] == Unassigned {
				rest = append(rest, l)
			}
		}
		todo = rest
	}
	return m.settle(todo)
}

// refBFSLayer is the layered BFS that finishes labelling the layer of its
// first free right before it stops.
func (m *Matcher) refBFSLayer(frontier []int32, hinter Hinted, hinted bool) bool {
	m.beginSearch()
	m.memoLive = 0
	q := m.queue[:0]
	for _, l := range frontier {
		if m.assigned[l] != Unassigned || m.marks[l].visit == m.epoch {
			continue
		}
		if hinted && hinter.NoServer(int(l)) {
			continue
		}
		m.marks[l].visit = m.epoch
		m.marks[l].level = 0
		q = append(q, l)
	}
	found := false
	for layerStart, layerEnd := 0, len(q); layerStart < layerEnd; layerStart, layerEnd = layerEnd, len(q) {
		for i := layerStart; i < layerEnd; i++ {
			l := q[i]
			d := m.marks[l].level
			for r := m.bfsFirst(hinter, l); r >= 0; r = m.bfsNext() {
				rr := &m.rights[r]
				if rr.visit == m.epoch {
					continue
				}
				rr.visit = m.epoch
				rr.level = d
				if rr.load < rr.cap {
					found = true
					m.maxLevel = d
					continue
				}
				if !found {
					for _, l2 := range m.AssignedLefts(r) {
						if m.marks[l2].visit != m.epoch {
							m.marks[l2].visit = m.epoch
							m.marks[l2].level = d + 1
							q = append(q, l2)
						}
					}
				}
			}
		}
		if found {
			break
		}
	}
	m.queue = q
	return found
}

// refDFSAugment is the label-checking, memo-free phase DFS.
func (m *Matcher) refDFSAugment(root int32) bool {
	adj := m.trav.adj
	st := append(m.dfs[:0], dfsFrame{l: root, r: -1})
	adj.BeginServers(int(root), &st[0].cur)
	for len(st) > 0 {
		d := int32(len(st) - 1)
		f := &st[d]
		if f.r < 0 {
			r := adj.NextServer(&f.cur)
			if r < 0 {
				st = st[:d]
				continue
			}
			rr := &m.rights[r]
			if rr.visit != m.epoch || rr.level != d || rr.done == m.epoch {
				continue
			}
			if rr.load < rr.cap {
				f.r = int32(r)
				for i := len(st) - 1; i >= 0; i-- {
					m.assign(int(st[i].l), int(st[i].r))
				}
				m.dfs = st[:0]
				return true
			}
			if d >= m.maxLevel {
				rr.done = m.epoch
				continue
			}
			f.r, f.i = int32(r), 0
		}
		lefts := m.AssignedLefts(int(f.r))
		for f.i < int32(len(lefts)) {
			l2 := lefts[f.i]
			f.i++
			if m.marks[l2].visit != m.epoch || m.marks[l2].level != d+1 {
				continue
			}
			m.marks[l2].level = consumed
			st = append(st, dfsFrame{l: l2, r: -1})
			adj.BeginServers(int(l2), &st[d+1].cur)
			break
		}
		if int32(len(st)) == d+1 {
			m.rights[f.r].done = m.epoch
			f.r = -1
		}
	}
	m.dfs = st
	return false
}

// classWorkload generates randomized rounds the way TestClassMemoLockstep
// does: class lists with duplicate rights, arrivals in ascending,
// descending or shuffled need order, departures, needs advancing,
// capacity changes. hub widens one class to a list over every right, so
// one layer holds many lefts of one class.
type classWorkload struct {
	rng        *stats.RNG
	adj        *classAdj
	nR, nC     int
	order      uint64
	live, free []int
	nextLeft   int
}

func newClassWorkload(seed uint64, hub bool) (*classWorkload, []int64) {
	rng := stats.NewRNG(0x9a5e ^ seed)
	w := &classWorkload{rng: rng, nR: 6 + rng.Intn(9), nC: 2 + rng.Intn(4), order: seed % 3}
	caps := make([]int64, w.nR)
	for r := range caps {
		caps[r] = int64(rng.Intn(3))
	}
	w.adj = &classAdj{lists: make([][]classEntry, w.nC)}
	for c := range w.adj.lists {
		n := 2 + rng.Intn(7)
		if hub && c == 0 {
			n = 3 * w.nR
		}
		for ; n > 0; n-- {
			w.adj.lists[c] = append(w.adj.lists[c], classEntry{rng.Intn(w.nR), int32(1 + rng.Intn(12))})
		}
	}
	return w, caps
}

// round applies one round's arrivals, departures, progress and capacity
// change to the instance and to every matcher, revalidating each.
func (w *classWorkload) round(t *testing.T, ms ...*Matcher) {
	t.Helper()
	rng, adj := w.rng, w.adj
	type arrival struct {
		class, need int32
		self        int
	}
	arrivals := make([]arrival, rng.Intn(6))
	for i := range arrivals {
		class := int32(rng.Intn(w.nC))
		self := rng.Intn(w.nR)
		if list := adj.lists[class]; rng.Bool(0.7) {
			self = list[rng.Intn(len(list))].right
		}
		arrivals[i] = arrival{class, int32(rng.Intn(12)), self}
	}
	switch w.order {
	case 0:
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].need < arrivals[j].need })
	case 1:
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].need > arrivals[j].need })
	}
	for _, a := range arrivals {
		l := w.nextLeft
		if n := len(w.free); n > 0 && rng.Bool(0.5) {
			l, w.free = w.free[n-1], w.free[:n-1]
		} else {
			w.nextLeft++
		}
		adj.addLeft(l, a.class, a.need, a.self)
		w.live = append(w.live, l)
		for _, m := range ms {
			m.AddLeft(l)
		}
	}
	kept := w.live[:0]
	for _, l := range w.live {
		switch {
		case rng.Bool(0.1):
			w.free = append(w.free, l)
			for _, m := range ms {
				m.RemoveLeft(l)
			}
			continue
		case rng.Bool(0.3):
			adj.need[l]++
		}
		kept = append(kept, l)
	}
	w.live = kept
	for _, m := range ms {
		m.Revalidate(adj)
	}
	if rng.Bool(0.4) {
		r, c := rng.Intn(w.nR), int64(rng.Intn(3))
		for _, m := range ms {
			m.SetCapacity(r, c)
		}
	}
}

// requireSameMatching fails unless both matchers left the same lefts
// unmatched and hold the same assignment and the same per-right lists.
func requireSameMatching(t *testing.T, where string, un1, un2 []int, m1, m2 *Matcher) {
	t.Helper()
	if !slices.Equal(un1, un2) {
		t.Fatalf("%s: unmatched %v, reference %v", where, un1, un2)
	}
	if !slices.Equal(m1.assigned, m2.assigned) {
		t.Fatalf("%s: assignment differs\n got %v\n ref %v", where, m1.assigned, m2.assigned)
	}
	for r := range m1.rights {
		if !slices.Equal(m1.AssignedLefts(r), m2.AssignedLefts(r)) {
			t.Fatalf("%s: right %d lists %v, reference %v", where, r, m1.AssignedLefts(r), m2.AssignedLefts(r))
		}
	}
}

// TestPhaseMemoMatchesReference holds the early-stopping BFS and the
// memoized phase DFS to the reference phases on instances built the way
// TestClassMemoLockstep builds its own, and on ones with a hub class:
// after every AugmentAll the two matchers hold the same matching, list
// for list. The reference sees the same class-reporting adjacency, so the
// BFS class memo is common to both and the pin is on the phase changes.
func TestPhaseMemoMatchesReference(t *testing.T) {
	for _, hub := range []bool{false, true} {
		for seed := uint64(0); seed < 80; seed++ {
			w, caps := newClassWorkload(seed, hub)
			m, ref := NewMatcher(caps), NewMatcher(caps)
			for round := 0; round < 40; round++ {
				w.round(t, m, ref)
				un1 := slices.Clone(m.AugmentAll(w.adj))
				un2 := ref.refAugmentAll(w.adj)
				requireSameMatching(t, fmt.Sprintf("hub=%v seed %d round %d", hub, seed, round), un1, un2, m, ref)
				if err := m.Verify(w.adj); err != nil {
					t.Fatalf("hub=%v seed %d round %d: %v", hub, seed, round, err)
				}
			}
		}
	}
}

// TestEpochWrapLockstep steps a matcher across the wrap of its 32-bit
// search epoch beside a fresh twin. Gadget g is two rights of capacity
// one, a parked left of its own class on either, and a left of class g
// that only the first serves, so placing that left takes exactly one
// layered phase, which writes class g's memo slots. The matcher runs
// gadgets 0..k−1 once (gadget g's phase is epoch g+1), releases every
// left, jumps its epoch to just before the wrap and, in lockstep with the
// twin, runs gadget k and then gadgets 0..k−1 again: gadget g's phase is
// epoch g+1 once more, so the slots it wrote before the jump read as
// current unless the wrap cleared them.
func TestEpochWrapLockstep(t *testing.T) {
	const k = 8
	adj := &classAdj{lists: make([][]classEntry, 2*(k+1))}
	caps := make([]int64, 2*(k+1))
	for g := 0; g <= k; g++ {
		caps[2*g], caps[2*g+1] = 1, 1
		adj.lists[g] = []classEntry{{2 * g, 1}}
		adj.lists[k+1+g] = []classEntry{{2 * g, 1}, {2*g + 1, 1}}
		adj.addLeft(2*g, int32(g), 0, -1)
		adj.addLeft(2*g+1, int32(k+1+g), 0, -1)
	}
	gadget := func(t *testing.T, g int, ms ...*Matcher) {
		t.Helper()
		for _, l := range []int{2*g + 1, 2 * g} {
			var un [][]int
			for _, m := range ms {
				m.AddLeft(l)
				un = append(un, slices.Clone(m.AugmentAll(adj)))
			}
			if len(ms) == 2 {
				requireSameMatching(t, fmt.Sprintf("gadget %d left %d at epoch %d", g, l, ms[0].epoch), un[0], un[1], ms[0], ms[1])
			}
		}
	}
	m, fresh := NewMatcher(caps), NewMatcher(caps)
	for g := 0; g < k; g++ {
		gadget(t, g, m)
		if m.epoch != uint32(g+1) || m.Server(2*g) != 2*g {
			t.Fatalf("gadget %d: epoch %d, left %d on right %d; want one phase placing it on %d",
				g, m.epoch, 2*g, m.Server(2*g), 2*g)
		}
	}
	for l := 0; l < 2*k; l++ {
		m.RemoveLeft(l)
	}
	m.epoch = math.MaxUint32 - 1
	gadget(t, k, m, fresh)
	for g := 0; g < k; g++ {
		gadget(t, g, m, fresh)
		if m.epoch != uint32(g+1) {
			t.Fatalf("gadget %d ran at epoch %d after the wrap, want %d", g, m.epoch, g+1)
		}
	}
}
