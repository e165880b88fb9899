package bipartite

import (
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/maxflow"
	"repro/internal/stats"
)

// listAdj is an explicit adjacency-list implementation for tests.
type listAdj struct {
	neighbors map[int][]int
}

func newListAdj() *listAdj { return &listAdj{neighbors: make(map[int][]int)} }

func (a *listAdj) add(l int, rs ...int) { a.neighbors[l] = append(a.neighbors[l], rs...) }

func (a *listAdj) BeginServers(l int, c *Cursor) { *c = Cursor{Left: int32(l)} }

func (a *listAdj) NextServer(c *Cursor) int {
	ns := a.neighbors[int(c.Left)]
	if int(c.Index) >= len(ns) {
		return -1
	}
	c.Index++
	return ns[c.Index-1]
}

func (a *listAdj) CanServe(l, r int) bool {
	for _, x := range a.neighbors[l] {
		if x == r {
			return true
		}
	}
	return false
}

func TestSimpleMatch(t *testing.T) {
	m := NewMatcher([]int64{1, 1})
	adj := newListAdj()
	adj.add(0, 0)
	adj.add(1, 0, 1)
	m.AddLeft(0)
	m.AddLeft(1)
	if un := m.AugmentAll(adj); un != nil {
		t.Fatalf("unmatched: %v", un)
	}
	if m.MatchedCount() != 2 {
		t.Fatalf("matched %d, want 2", m.MatchedCount())
	}
	if err := m.Verify(adj); err != nil {
		t.Fatal(err)
	}
}

func TestReassignmentNeeded(t *testing.T) {
	// Left 0 greedily takes right 0; left 1 can only use right 0, forcing a
	// reassignment of left 0 to right 1.
	m := NewMatcher([]int64{1, 1})
	adj := newListAdj()
	adj.add(0, 0, 1)
	adj.add(1, 0)
	m.AddLeft(0)
	if m.AugmentAll(adj) != nil {
		t.Fatal("left 0 should match")
	}
	m.AddLeft(1)
	if un := m.AugmentAll(adj); un != nil {
		t.Fatalf("augment failed to reassign: unmatched %v", un)
	}
	if m.Server(1) != 0 || m.Server(0) != 1 {
		t.Errorf("servers: left0->%d left1->%d", m.Server(0), m.Server(1))
	}
	if err := m.Verify(adj); err != nil {
		t.Fatal(err)
	}
}

func TestCapacitatedRight(t *testing.T) {
	m := NewMatcher([]int64{3})
	adj := newListAdj()
	for l := 0; l < 4; l++ {
		adj.add(l, 0)
		m.AddLeft(l)
	}
	un := m.AugmentAll(adj)
	if len(un) != 1 {
		t.Fatalf("unmatched = %v, want exactly 1", un)
	}
	if m.MatchedCount() != 3 || m.Load(0) != 3 {
		t.Fatalf("matched=%d load=%d", m.MatchedCount(), m.Load(0))
	}
	v := m.HallViolator(adj)
	if v == nil {
		t.Fatal("expected a violator")
	}
	if int64(len(v.Lefts)) <= v.Slots {
		t.Fatalf("certificate invalid: |X|=%d slots=%d", len(v.Lefts), v.Slots)
	}
}

func TestRemoveLeftFreesCapacity(t *testing.T) {
	m := NewMatcher([]int64{1})
	adj := newListAdj()
	adj.add(0, 0)
	adj.add(1, 0)
	m.AddLeft(0)
	m.AddLeft(1)
	un := m.AugmentAll(adj)
	if len(un) != 1 {
		t.Fatalf("want 1 unmatched, got %v", un)
	}
	matchedLeft := 0
	if m.Server(0) == Unassigned {
		matchedLeft = 1
	}
	m.RemoveLeft(matchedLeft)
	if un := m.AugmentAll(adj); un != nil {
		t.Fatalf("freed slot not reused: %v", un)
	}
	if err := m.Verify(adj); err != nil {
		t.Fatal(err)
	}
}

func TestRevalidateDropsDeadEdges(t *testing.T) {
	m := NewMatcher([]int64{1, 1})
	adj := newListAdj()
	adj.add(0, 0)
	adj.add(1, 1)
	m.AddLeft(0)
	m.AddLeft(1)
	if m.AugmentAll(adj) != nil {
		t.Fatal("initial match failed")
	}
	// Edge (0,0) disappears; 0 can now reach only right 1.
	adj.neighbors[0] = []int{1}
	if dropped := m.Revalidate(adj); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if m.Server(0) != Unassigned {
		t.Fatal("assignment should have been dropped")
	}
	// Right 1 is taken by left 1; left 1 has no alternative, so left 0 stays
	// unmatched — capacity conflict.
	if un := m.AugmentAll(adj); len(un) != 1 {
		t.Fatalf("unmatched = %v, want 1", un)
	}
}

func TestSetCapacityEviction(t *testing.T) {
	m := NewMatcher([]int64{2})
	adj := newListAdj()
	adj.add(0, 0)
	adj.add(1, 0)
	m.AddLeft(0)
	m.AddLeft(1)
	if m.AugmentAll(adj) != nil {
		t.Fatal("initial match failed")
	}
	victims := m.SetCapacity(0, 1)
	if len(victims) != 1 {
		t.Fatalf("victims = %v, want 1", victims)
	}
	if m.Load(0) != 1 || m.Capacity(0) != 1 {
		t.Fatalf("load=%d cap=%d", m.Load(0), m.Capacity(0))
	}
	if err := m.Verify(adj); err != nil {
		t.Fatal(err)
	}
}

func TestAddLeftTwicePanics(t *testing.T) {
	m := NewMatcher([]int64{1})
	m.AddLeft(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.AddLeft(0)
}

func TestRemoveInactivePanics(t *testing.T) {
	m := NewMatcher([]int64{1})
	m.EnsureLeft(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.RemoveLeft(0)
}

func TestHallViolatorNilWhenMatched(t *testing.T) {
	m := NewMatcher([]int64{1})
	adj := newListAdj()
	adj.add(0, 0)
	m.AddLeft(0)
	m.AugmentAll(adj)
	if v := m.HallViolator(adj); v != nil {
		t.Fatalf("expected nil violator, got %+v", v)
	}
}

func TestGreedySuboptimal(t *testing.T) {
	// Greedy strands left 1 but the optimal matching serves both: the gap
	// that justifies augmenting paths.
	adj := newListAdj()
	adj.add(0, 0, 1)
	adj.add(1, 0)
	g := NewGreedy([]int64{1, 1})
	_, matched := g.Match(adj, []int{0, 1})
	if matched != 1 {
		t.Fatalf("greedy matched %d, want 1 (the suboptimal outcome)", matched)
	}
	g.Reset()
	_, matched = g.Match(adj, []int{1, 0})
	if matched != 2 {
		t.Fatalf("greedy with lucky order matched %d, want 2", matched)
	}
}

// optimalViaMaxflow computes the true maximum matching size with Dinic.
func optimalViaMaxflow(adj *listAdj, lefts []int, caps []int64) int64 {
	n := len(lefts)
	r := len(caps)
	g := maxflow.NewNetwork(2 + n + r)
	src, sink := 0, 1
	for i, l := range lefts {
		g.AddEdge(src, 2+i, 1)
		for _, rr := range adj.neighbors[l] {
			g.AddEdge(2+i, 2+n+rr, 1)
		}
	}
	for j, c := range caps {
		g.AddEdge(2+n+j, sink, c)
	}
	var d maxflow.Dinic
	return d.MaxFlow(g, src, sink)
}

func randomInstance(rng *stats.RNG) (*listAdj, []int, []int64) {
	nl := 1 + rng.Intn(12)
	nr := 1 + rng.Intn(6)
	caps := make([]int64, nr)
	for i := range caps {
		caps[i] = int64(rng.Intn(3))
	}
	adj := newListAdj()
	lefts := make([]int, nl)
	for l := 0; l < nl; l++ {
		lefts[l] = l
		for r := 0; r < nr; r++ {
			if rng.Bool(0.4) {
				adj.add(l, r)
			}
		}
	}
	return adj, lefts, caps
}

// Property: the incremental matcher reaches the max-flow optimum.
func TestQuickMatcherIsOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		adj, lefts, caps := randomInstance(rng)
		m := NewMatcher(caps)
		for _, l := range lefts {
			m.AddLeft(l)
		}
		m.AugmentAll(adj)
		if err := m.Verify(adj); err != nil {
			return false
		}
		return int64(m.MatchedCount()) == optimalViaMaxflow(adj, lefts, caps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: incremental arrival order does not change the matching size.
func TestQuickIncrementalEqualsBatch(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		adj, lefts, caps := randomInstance(rng)

		batch := NewMatcher(caps)
		for _, l := range lefts {
			batch.AddLeft(l)
		}
		batch.AugmentAll(adj)

		inc := NewMatcher(caps)
		for _, l := range lefts {
			inc.AddLeft(l)
			inc.AugmentAll(adj) // augment after every single arrival
		}
		return inc.MatchedCount() == batch.MatchedCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: departures then re-augmentation stays optimal.
func TestQuickDeparturesStayOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		adj, lefts, caps := randomInstance(rng)
		m := NewMatcher(caps)
		for _, l := range lefts {
			m.AddLeft(l)
		}
		m.AugmentAll(adj)
		// Remove a random subset.
		var remaining []int
		for _, l := range lefts {
			if rng.Bool(0.4) {
				m.RemoveLeft(l)
			} else {
				remaining = append(remaining, l)
			}
		}
		m.AugmentAll(adj)
		if err := m.Verify(adj); err != nil {
			return false
		}
		return int64(m.MatchedCount()) == optimalViaMaxflow(adj, remaining, caps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: when requests go unmatched, the extracted Hall violator is a
// genuine certificate: every server of every left in X is inside Rights,
// and capacity is insufficient.
func TestQuickHallCertificate(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		adj, lefts, caps := randomInstance(rng)
		m := NewMatcher(caps)
		for _, l := range lefts {
			m.AddLeft(l)
		}
		un := m.AugmentAll(adj)
		v := m.HallViolator(adj)
		if len(un) == 0 {
			return v == nil
		}
		if v == nil {
			return false
		}
		inRights := make(map[int]bool)
		for _, r := range v.Rights {
			inRights[r] = true
		}
		var slots int64
		for _, r := range v.Rights {
			slots += caps[r]
		}
		if slots != v.Slots {
			return false
		}
		for _, l := range v.Lefts {
			for _, r := range adj.neighbors[l] {
				if !inRights[r] {
					return false // B(X) escapes the certificate
				}
			}
		}
		return int64(len(v.Lefts)) > v.Slots
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: greedy never beats the optimal matcher.
func TestQuickGreedyNeverBeatsOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		adj, lefts, caps := randomInstance(rng)
		g := NewGreedy(caps)
		_, greedyMatched := g.Match(adj, lefts)
		m := NewMatcher(caps)
		for _, l := range lefts {
			m.AddLeft(l)
		}
		m.AugmentAll(adj)
		return greedyMatched <= m.MatchedCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	m := NewMatcher([]int64{1})
	adj := newListAdj()
	adj.add(0, 0)
	m.AddLeft(0)
	m.AugmentAll(adj)
	// Corrupt: claim the edge is gone.
	adj.neighbors[0] = nil
	if err := m.Verify(adj); err == nil {
		t.Fatal("Verify should detect missing edge")
	}
}

// TestInvalidateMatchesRevalidate pins the event-driven invalidation
// contract: repairing via targeted Invalidate calls on exactly the lefts
// whose assigned edge disappeared must leave the matcher in the same
// state as a full Revalidate sweep. Two identically driven matchers run
// side by side through randomized edge deletions and churn.
func TestInvalidateMatchesRevalidate(t *testing.T) {
	const nL, nR, deg, rounds = 160, 40, 3, 60
	rng := stats.NewRNG(0xeed)
	adj := newListAdj()
	caps := make([]int64, nR)
	for r := range caps {
		caps[r] = 4
	}
	for l := 0; l < nL; l++ {
		adj.add(l, rng.SampleWithoutReplacement(nR, deg)...)
	}
	sweep, event := NewMatcher(caps), NewMatcher(caps)
	for l := 0; l < nL; l++ {
		sweep.AddLeft(l)
		event.AddLeft(l)
	}
	sweep.AugmentAll(adj)
	event.AugmentAll(adj)

	removeEdge := func(l, r int) bool {
		ns := adj.neighbors[l]
		for i, x := range ns {
			if x == r {
				adj.neighbors[l] = append(ns[:i], ns[i+1:]...)
				return true
			}
		}
		return false
	}

	for round := 0; round < rounds; round++ {
		// Delete the current edge under a few random assignments (plus an
		// unassigned edge, which must be a no-op for both paths).
		var touched []int
		for i := 0; i < 1+rng.Intn(4); i++ {
			l := rng.Intn(nL)
			if !sweep.Active(l) {
				continue
			}
			if r := sweep.Server(l); r != Unassigned {
				if removeEdge(l, r) {
					touched = append(touched, l)
				}
			} else if ns := adj.neighbors[l]; len(ns) > 0 {
				removeEdge(l, ns[rng.Intn(len(ns))])
				touched = append(touched, l)
			}
		}
		// Churn a few lefts identically on both matchers.
		for i := 0; i < rng.Intn(3); i++ {
			l := rng.Intn(nL)
			if sweep.Active(l) {
				sweep.RemoveLeft(l)
				event.RemoveLeft(l)
			} else {
				sweep.AddLeft(l)
				event.AddLeft(l)
			}
		}

		dropsSweep := sweep.Revalidate(adj)
		batch := make([]int32, 0, len(touched))
		for _, l := range touched {
			batch = append(batch, int32(l))
		}
		dropsEvent := event.InvalidateBatch(adj, batch)
		if dropsSweep != dropsEvent {
			t.Fatalf("round %d: sweep dropped %d, targeted dropped %d", round, dropsSweep, dropsEvent)
		}
		sweep.AugmentAll(adj)
		event.AugmentAll(adj)
		for l := 0; l < nL; l++ {
			if sweep.Server(l) != event.Server(l) {
				t.Fatalf("round %d: left %d assigned %d (sweep) vs %d (targeted)",
					round, l, sweep.Server(l), event.Server(l))
			}
		}
		if err := sweep.Verify(adj); err != nil {
			t.Fatalf("round %d: sweep matcher corrupt: %v", round, err)
		}
		if err := event.Verify(adj); err != nil {
			t.Fatalf("round %d: targeted matcher corrupt: %v", round, err)
		}
	}
}

// greedyStallSet is the canonical stall set by its definition: the
// transversal matroid's greedy basis over lefts in ascending id, each kept
// when Dinic still covers the basis plus that left. The lefts left out are
// the ones that stall, returned ascending.
func greedyStallSet(adj *listAdj, lefts []int, caps []int64) []int {
	lefts = slices.Sorted(slices.Values(lefts))
	var basis, stalled []int
	for _, l := range lefts {
		basis = append(basis, l)
		if optimalViaMaxflow(adj, basis, caps) < int64(len(basis)) {
			basis = basis[:len(basis)-1]
			stalled = append(stalled, l)
		}
	}
	return stalled
}

// TestAugmentAllAgainstOracles drives one matcher through randomized
// rounds of arrivals, departures, edge invalidation (adjacency mutation +
// Revalidate) and capacity changes, and holds every round to oracles
// computed from the live instance alone: the matching must (a) equal the
// max-flow optimum and (b) pass Verify. On a deficit round the matching is
// then canonicalized, as the engine does, and (c) must leave exactly the
// greedy basis's complement unmatched: CanonicalizeDeficit makes the stall
// set a function of the graph, not of the search that found the matching.
func TestAugmentAllAgainstOracles(t *testing.T) {
	deficits := 0
	for seed := uint64(0); seed < 12; seed++ {
		rng := stats.NewRNG(0xb10c ^ seed)
		nR := 3 + rng.Intn(8)
		caps := make([]int64, nR)
		for r := range caps {
			caps[r] = int64(rng.Intn(4))
		}
		m := NewMatcher(caps)

		adj := newListAdj()
		var nextLeft int
		var free []int // recycled left IDs
		active := make(map[int]bool)
		newNeighbors := func() []int {
			var ns []int
			for r := 0; r < nR; r++ {
				if rng.Bool(0.4) {
					ns = append(ns, r)
				}
			}
			return ns
		}

		for round := 0; round < 50; round++ {
			// Arrivals.
			for i := rng.Intn(4); i > 0; i-- {
				l := nextLeft
				if n := len(free); n > 0 && rng.Bool(0.5) {
					l = free[n-1]
					free = free[:n-1]
				} else {
					nextLeft++
				}
				adj.neighbors[l] = newNeighbors()
				active[l] = true
				m.AddLeft(l)
			}
			// Departures.
			for l := range active {
				if rng.Bool(0.15) {
					delete(active, l)
					free = append(free, l)
					m.RemoveLeft(l)
				}
			}
			// Edge invalidation: rewire a few lefts, then Revalidate.
			for l := range active {
				if rng.Bool(0.2) {
					adj.neighbors[l] = newNeighbors()
				}
			}
			m.Revalidate(adj)
			// Capacity change: eviction victims are re-queued internally.
			if rng.Bool(0.5) {
				m.SetCapacity(rng.Intn(nR), int64(rng.Intn(4)))
			}

			unmatched := m.AugmentAll(adj)
			var lefts []int
			for l := range active {
				lefts = append(lefts, l)
			}
			capsNow := make([]int64, nR)
			for r := 0; r < nR; r++ {
				capsNow[r] = m.Capacity(r)
			}
			if opt := optimalViaMaxflow(adj, lefts, capsNow); int64(m.MatchedCount()) != opt {
				t.Fatalf("seed %d round %d: matched %d, optimum %d", seed, round, m.MatchedCount(), opt)
			}
			if len(unmatched) > 0 {
				deficits++
				got := m.CanonicalizeDeficit(adj, unmatched)
				if want := greedyStallSet(adj, lefts, capsNow); !slices.Equal(got, want) {
					t.Fatalf("seed %d round %d: canonical stall set %v, greedy basis leaves %v",
						seed, round, got, want)
				}
			}
			if err := m.Verify(adj); err != nil {
				t.Fatalf("seed %d round %d: matcher corrupt: %v", seed, round, err)
			}
		}
	}
	if deficits < 50 {
		t.Fatalf("only %d deficit rounds: the canonical stall-set pin is barely exercised", deficits)
	}
}

// TestBatchLongPaths exercises the phase machinery on an instance whose
// last augmenting path is forced to be maximally long: a chain of
// capacity-1 rights where left 0 can only enter at the occupied head, so
// its augmentation must cascade every other left one hop down the chain
// (path length n, with every arrival re-augmented on the way).
func TestBatchLongPaths(t *testing.T) {
	const n = 512
	caps := make([]int64, n)
	for r := range caps {
		caps[r] = 1
	}
	adj := newListAdj()
	adj.add(0, 0)
	for l := 1; l < n; l++ {
		adj.add(l, l-1, l) // probes right l−1 first
	}
	m := NewMatcher(caps)
	for l := n - 1; l >= 0; l-- {
		m.AddLeft(l)
		if un := m.AugmentAll(adj); un != nil {
			t.Fatalf("left %d unmatched: %v", l, un)
		}
	}
	if m.MatchedCount() != n {
		t.Fatalf("matched %d, want %d", m.MatchedCount(), n)
	}
	if err := m.Verify(adj); err != nil {
		t.Fatal(err)
	}
}

// TestDeepCascade runs the same cascade chain at 10⁵ hops under a 1 MiB
// goroutine stack cap: the phase DFS keeps its path on an explicit stack,
// so a shortest augmenting path of any length costs heap, not goroutine
// stack (a DFS recursing once per hop overflows the cap here).
func TestDeepCascade(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	const n = 100_000
	caps := make([]int64, n)
	for r := range caps {
		caps[r] = 1
	}
	lists := make(Lists, n)
	lists[0] = []int32{0}
	for l := 1; l < n; l++ {
		lists[l] = []int32{int32(l - 1), int32(l)}
	}
	m := NewMatcher(caps)
	// Reverse arrival keeps every augmentation greedy (left l takes the
	// free right l−1) until left 0 arrives and needs the full-length
	// cascade through all n rights.
	for l := n - 1; l >= 1; l-- {
		m.AddLeft(l)
	}
	if un := m.AugmentAll(lists); un != nil {
		t.Fatalf("%d lefts unmatched before the cascade", len(un))
	}
	m.AddLeft(0)
	if un := m.AugmentAll(lists); un != nil {
		t.Fatalf("cascade unmatched: %v", un)
	}
	if m.MatchedCount() != n {
		t.Fatalf("matched %d, want %d", m.MatchedCount(), n)
	}
	if err := m.Verify(lists); err != nil {
		t.Fatal(err)
	}
}

// fadingAdj breaks the Adjacency stability contract: left 0 has servers
// only on its first two BeginServers calls, so the phase DFS cannot
// retrace the path its BFS labeled.
type fadingAdj struct {
	Lists
	begun int
}

func (a *fadingAdj) BeginServers(l int, c *Cursor) {
	a.Lists.BeginServers(l, c)
	if l == 0 {
		if a.begun++; a.begun > 2 {
			c.Index = int32(len(a.Lists[l]))
		}
	}
}

// TestUnstableAdjacencyPanics pins the one exit of a phase that finds no
// path after its BFS reached free capacity: it must panic, not return a
// non-maximum matching that would read as a Lemma 1 obstruction.
func TestUnstableAdjacencyPanics(t *testing.T) {
	adj := &fadingAdj{Lists: Lists{{0}, {0, 1}}}
	m := NewMatcher([]int64{1, 1})
	m.AddLeft(1)
	m.AddLeft(0)
	msg := func() (msg string) {
		defer func() { msg, _ = recover().(string) }()
		m.AugmentAll(adj)
		return ""
	}()
	if !strings.Contains(msg, "Adjacency enumeration is not stable") {
		t.Fatalf("AugmentAll did not panic on the broken stability contract (panic value %q)", msg)
	}
}

// TestSetCapacityScratchReuse pins the scratch-buffer contract: the
// victims slice is only valid until the next SetCapacity call.
func TestSetCapacityScratchReuse(t *testing.T) {
	m := NewMatcher([]int64{2, 2})
	adj := newListAdj()
	for l := 0; l < 4; l++ {
		adj.add(l, l/2)
		m.AddLeft(l)
	}
	if m.AugmentAll(adj) != nil {
		t.Fatal("initial match failed")
	}
	first := m.SetCapacity(0, 0)
	if len(first) != 2 {
		t.Fatalf("victims = %v, want 2", first)
	}
	second := m.SetCapacity(1, 1)
	if len(second) != 1 {
		t.Fatalf("victims = %v, want 1", second)
	}
	if &first[0] == &second[0] && first[0] == second[0] {
		// Shared backing storage is the point; just document that the
		// earlier slice now aliases the newer victims.
		t.Logf("scratch reused as documented")
	}
	if got := m.SetCapacity(1, 4); got != nil {
		t.Fatalf("no-eviction call returned %v, want nil", got)
	}
}

// TestAssignmentLog checks that LogAssignments records every left that
// receives a server (including path moves) and that draining resets it.
func TestAssignmentLog(t *testing.T) {
	m := NewMatcher([]int64{1, 1})
	m.LogAssignments(true)
	adj := newListAdj()
	adj.add(0, 0, 1)
	adj.add(1, 0)
	m.AddLeft(0)
	m.AugmentAll(adj)
	m.AddLeft(1) // forces the augmenting path to move left 0
	m.AugmentAll(adj)
	log := m.DrainAssigned(nil)
	seen := map[int32]bool{}
	for _, l := range log {
		seen[l] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("assignment log %v missing a left", log)
	}
	if got := m.DrainAssigned(nil); len(got) != 0 {
		t.Fatalf("second drain returned %v, want empty", got)
	}
	m.LogAssignments(false)
	m.RemoveLeft(0)
	m.AddLeft(0)
	m.AugmentAll(adj)
	if got := m.DrainAssigned(nil); len(got) != 0 {
		t.Fatalf("disabled log returned %v, want empty", got)
	}
}
