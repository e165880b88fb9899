package bipartite

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// classEntry is one server record of a class: right serves every left of
// the class whose need is below weight (and whose self is another right).
type classEntry struct {
	right  int
	weight int32
}

// classAdj is a test adjacency with the structure Hinted.ServerClass
// promises: each class owns one entry list, a left sees the entries that
// outweigh its need minus its own self, so server sets of one class nest by
// need up to the excluded right. A right may appear in a list twice with
// different weights. pulls counts servers yielded by NextServer and probes
// counts CanServe calls.
type classAdj struct {
	lists  [][]classEntry
	class  []int32
	need   []int32
	self   []int // excluded right, -1 for none
	pulls  int
	probes int
}

func (a *classAdj) addLeft(l int, class, need int32, self int) {
	for len(a.class) <= l {
		a.class = append(a.class, 0)
		a.need = append(a.need, 0)
		a.self = append(a.self, -1)
	}
	a.class[l], a.need[l], a.self[l] = class, need, self
}

func (a *classAdj) serves(l int, e classEntry) bool {
	return e.right != a.self[l] && e.weight > a.need[l]
}

func (a *classAdj) VisitServers(l int, fn func(int) bool) {
	for _, e := range a.lists[a.class[l]] {
		if a.serves(l, e) && !fn(e.right) {
			return
		}
	}
}

func (a *classAdj) CanServe(l, r int) bool {
	a.probes++
	for _, e := range a.lists[a.class[l]] {
		if e.right == r && a.serves(l, e) {
			return true
		}
	}
	return false
}

func (a *classAdj) BeginServers(l int, c *Cursor) { *c = Cursor{Left: int32(l)} }

func (a *classAdj) NextServer(c *Cursor) int {
	list := a.lists[a.class[c.Left]]
	for int(c.Index) < len(list) {
		e := list[c.Index]
		c.Index++
		if a.serves(int(c.Left), e) {
			a.pulls++
			return e.right
		}
	}
	return -1
}

func (a *classAdj) ServerCountHint(l int) int { return len(a.lists[a.class[l]]) }

func (a *classAdj) StableEdge(l, r int) bool { return false }

func (a *classAdj) ServerClass(l int) (int32, int32, int) {
	return a.class[l], a.need[l], a.self[l]
}

// classless is the reference the memo is held against: the same graph with
// every left reporting no class, so the layered BFS walks every server list.
type classless struct{ *classAdj }

func (classless) ServerClass(int) (int32, int32, int) { return -1, 0, -1 }

// searchLabels returns the last search's labels: the level of every right
// and left it stamped, -1 for the ones it did not reach.
func searchLabels(m *Matcher) (rights, lefts []int32) {
	rights = make([]int32, len(m.rights))
	for r := range m.rights {
		rights[r] = -1
		if m.rights[r].visit == m.epoch {
			rights[r] = m.rights[r].level
		}
	}
	lefts = make([]int32, len(m.visitL))
	for l := range m.visitL {
		lefts[l] = -1
		if m.visitL[l] == m.epoch {
			lefts[l] = m.levelL[l]
		}
	}
	return rights, lefts
}

// requireSameSearch fails unless both matchers hold the same matching and
// their last searches left the same stamps, levels, maxLevel and queue.
func requireSameSearch(t *testing.T, where string, memo, ref *Matcher) {
	t.Helper()
	if !slices.Equal(memo.assigned, ref.assigned) {
		t.Fatalf("%s: assignment differs\n memo %v\n ref  %v", where, memo.assigned, ref.assigned)
	}
	if memo.epoch != ref.epoch || memo.maxLevel != ref.maxLevel {
		t.Fatalf("%s: epoch/maxLevel %d/%d, reference %d/%d", where, memo.epoch, memo.maxLevel, ref.epoch, ref.maxLevel)
	}
	mr, ml := searchLabels(memo)
	rr, rl := searchLabels(ref)
	if !slices.Equal(mr, rr) {
		t.Fatalf("%s: right labels differ\n memo %v\n ref  %v", where, mr, rr)
	}
	if !slices.Equal(ml, rl) {
		t.Fatalf("%s: left labels differ\n memo %v\n ref  %v", where, ml, rl)
	}
	if !slices.Equal(memo.queue, ref.queue) {
		t.Fatalf("%s: BFS queue differs\n memo %v\n ref  %v", where, memo.queue, ref.queue)
	}
}

// TestClassMemoLockstep drives a class-reporting matcher and a classless
// reference through identical randomized rounds — arrivals in ascending,
// descending and shuffled need order, departures, needs advancing under
// Revalidate, capacity changes — over class lists with duplicate rights.
// The memo only changes which lefts enumerate, so the pin is bit-identity:
// assignments, search stamps, levels, maxLevel and queue after every round.
func TestClassMemoLockstep(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		rng := stats.NewRNG(0xc1a55 ^ seed)
		nR := 6 + rng.Intn(9)
		caps := make([]int64, nR)
		for r := range caps {
			caps[r] = int64(rng.Intn(3))
		}
		nC := 2 + rng.Intn(4)
		const maxWeight = 12
		adj := &classAdj{lists: make([][]classEntry, nC)}
		for c := range adj.lists {
			for i := 2 + rng.Intn(7); i > 0; i-- {
				adj.lists[c] = append(adj.lists[c], classEntry{rng.Intn(nR), int32(1 + rng.Intn(maxWeight))})
			}
		}
		memo, ref := NewMatcher(caps), NewMatcher(caps)
		var live, free []int
		nextLeft := 0
		for round := 0; round < 40; round++ {
			type arrival struct {
				class, need int32
				self        int
			}
			arrivals := make([]arrival, rng.Intn(6))
			for i := range arrivals {
				class := int32(rng.Intn(nC))
				// Mostly exclude a right of the class's own list, so the
				// exclusion is an edge that would otherwise exist.
				self := rng.Intn(nR)
				if list := adj.lists[class]; rng.Bool(0.7) {
					self = list[rng.Intn(len(list))].right
				}
				arrivals[i] = arrival{class, int32(rng.Intn(maxWeight)), self}
			}
			switch seed % 3 {
			case 0:
				sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].need < arrivals[j].need })
			case 1:
				sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].need > arrivals[j].need })
			}
			for _, a := range arrivals {
				l := nextLeft
				if n := len(free); n > 0 && rng.Bool(0.5) {
					l, free = free[n-1], free[:n-1]
				} else {
					nextLeft++
				}
				adj.addLeft(l, a.class, a.need, a.self)
				live = append(live, l)
				memo.AddLeft(l)
				ref.AddLeft(l)
			}
			kept := live[:0]
			for _, l := range live {
				switch {
				case rng.Bool(0.1):
					free = append(free, l)
					memo.RemoveLeft(l)
					ref.RemoveLeft(l)
					continue
				case rng.Bool(0.3):
					adj.need[l]++ // progress: edges to lighter entries die
				}
				kept = append(kept, l)
			}
			live = kept
			if d1, d2 := memo.Revalidate(adj), ref.Revalidate(classless{adj}); d1 != d2 {
				t.Fatalf("seed %d round %d: revalidate dropped %d, reference %d", seed, round, d1, d2)
			}
			if rng.Bool(0.4) {
				r, c := rng.Intn(nR), int64(rng.Intn(3))
				memo.SetCapacity(r, c)
				ref.SetCapacity(r, c)
			}
			un1 := slices.Clone(memo.AugmentAll(adj))
			un2 := ref.AugmentAll(classless{adj})
			if !slices.Equal(un1, un2) {
				t.Fatalf("seed %d round %d: unmatched %v, reference %v", seed, round, un1, un2)
			}
			requireSameSearch(t, fmt.Sprintf("seed %d round %d", seed, round), memo, ref)
			if err := memo.Verify(adj); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
	}
}

// TestClassMemoSecondEntry is the corner the exclusion probe exists for.
// Left a (need 2) must skip right 0, so its walk records right 0 as the
// class's excluded right without labelling it. Left b (need 7) is served
// by right 0 alone — not through the entry a's walk skipped (weight 5) but
// through a second one (weight 9). Both rights are full, so only the
// layered BFS can place a and b, and b's only way in is the probe.
func TestClassMemoSecondEntry(t *testing.T) {
	build := func() (*Matcher, *classAdj) {
		adj := &classAdj{lists: [][]classEntry{
			{{0, 5}, {1, 5}, {0, 9}}, // class 0: a and b
			{{0, 10}, {2, 10}},       // class 1: c, parked on right 0
			{{1, 10}, {3, 10}},       // class 2: d, parked on right 1
		}}
		m := NewMatcher([]int64{1, 1, 1, 1})
		adj.addLeft(0, 1, 0, -1)
		adj.addLeft(1, 2, 0, -1)
		adj.addLeft(2, 0, 2, 0) // a
		adj.addLeft(3, 0, 7, 3) // b
		return m, adj
	}
	memo, adj := build()
	ref, refAdj := build()
	for i, m := range []*Matcher{memo, ref} {
		var g Adjacency = adj
		if i == 1 {
			g = classless{refAdj}
		}
		m.AddLeft(0)
		m.AddLeft(1)
		if un := m.AugmentAll(g); un != nil || m.Server(0) != 0 || m.Server(1) != 1 {
			t.Fatalf("parking failed: unmatched %v, servers %d %d", un, m.Server(0), m.Server(1))
		}
		m.AddLeft(2)
		m.AddLeft(3)
		if un := m.AugmentAll(g); un != nil {
			t.Fatalf("matcher %d left %v unmatched", i, un)
		}
	}
	if memo.Server(3) != 0 {
		t.Fatalf("b is served by right %d, want 0", memo.Server(3))
	}
	requireSameSearch(t, "second entry", memo, ref)
}

// TestClassMemoBoundsEnumeration measures the layered BFS alone on a
// saturated instance: every right is full, so the wave explores everything
// and finds nothing. With lefts in ascending need order each class list is
// walked once and every later left costs one probe — enumeration work is
// bounded by lefts + Σ|class list|. The classless reference pays for every
// left's whole server set, and both label exactly the same graph.
func TestClassMemoBoundsEnumeration(t *testing.T) {
	const (
		classes   = 4
		listLen   = 50
		perClass  = 40
		numRights = 60
	)
	build := func() (*Matcher, *classAdj, []int32) {
		rng := stats.NewRNG(0xb0d)
		caps := make([]int64, numRights)
		for r := range caps {
			caps[r] = 1
		}
		adj := &classAdj{lists: make([][]classEntry, classes+numRights)}
		m := NewMatcher(caps)
		// One parked left per right, each in a class of its own.
		for r := 0; r < numRights; r++ {
			adj.lists[classes+r] = []classEntry{{r, 1}}
			adj.addLeft(r, int32(classes+r), 0, -1)
			m.AddLeft(r)
		}
		if un := m.AugmentAll(adj); un != nil {
			t.Fatalf("parking left %v unmatched", un)
		}
		var frontier []int32
		for c := 0; c < classes; c++ {
			for i := 0; i < listLen; i++ {
				adj.lists[c] = append(adj.lists[c], classEntry{rng.Intn(numRights), int32(1 + rng.Intn(2*perClass))})
			}
			for need := 0; need < perClass; need++ {
				l := numRights + c*perClass + need
				adj.addLeft(l, int32(c), int32(need), rng.Intn(numRights))
				m.AddLeft(l)
				frontier = append(frontier, int32(l))
			}
		}
		return m, adj, frontier
	}
	layer := func(reportClasses bool) (*Matcher, int) {
		m, adj, frontier := build()
		var g Hinted = adj
		if !reportClasses {
			g = classless{adj}
		}
		m.trav.bind(g)
		adj.pulls, adj.probes = 0, 0
		if m.bfsLayer(frontier, g, true) {
			t.Fatal("saturated instance reached a free right")
		}
		return m, adj.pulls + adj.probes
	}
	memo, work := layer(true)
	ref, refWork := layer(false)
	requireSameSearch(t, "saturated wave", memo, ref)
	const sumLists = classes*listLen + numRights // every class list, parked singletons included
	bound := classes*perClass + sumLists
	if work > bound {
		t.Errorf("memoized BFS did %d pulls+probes, bound lefts+Σ|list| = %d", work, bound)
	}
	if refWork < 4*bound {
		t.Errorf("classless BFS did %d pulls, expected the lefts×list product (≥ %d)", refWork, 4*bound)
	}
	if len(memo.memo) == 0 || len(memo.memo) > 4*(classes+numRights) {
		t.Errorf("memo table has %d slots for %d classes", len(memo.memo), classes+numRights)
	}
	if ref.memo != nil {
		t.Errorf("classless search allocated a memo table (%d slots)", len(ref.memo))
	}
}
