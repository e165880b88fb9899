package maxflow

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// Classic small instance with known max flow 19.
func buildClassic() (*Network, int, int) {
	g := NewNetwork(6)
	s, t := 0, 5
	g.AddEdge(s, 1, 10)
	g.AddEdge(s, 2, 10)
	g.AddEdge(1, 2, 2)
	g.AddEdge(1, 3, 4)
	g.AddEdge(1, 4, 8)
	g.AddEdge(2, 4, 9)
	g.AddEdge(4, 3, 6)
	g.AddEdge(3, t, 10)
	g.AddEdge(4, t, 10)
	return g, s, t
}

func TestClassicInstance(t *testing.T) {
	g, s, snk := buildClassic()
	var d Dinic
	if got := d.MaxFlow(g, s, snk); got != 19 {
		t.Errorf("flow = %d, want 19", got)
	}
}

func TestSourceEqualsSink(t *testing.T) {
	g := NewNetwork(2)
	g.AddEdge(0, 1, 5)
	var d Dinic
	if got := d.MaxFlow(g, 0, 0); got != 0 {
		t.Errorf("flow from node to itself = %d", got)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewNetwork(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(2, 3, 5)
	var d Dinic
	if got := d.MaxFlow(g, 0, 3); got != 0 {
		t.Errorf("disconnected flow = %d", got)
	}
}

func TestZeroCapacityEdges(t *testing.T) {
	g := NewNetwork(3)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 7)
	var d Dinic
	if got := d.MaxFlow(g, 0, 2); got != 0 {
		t.Errorf("flow through zero edge = %d", got)
	}
}

func TestParallelEdges(t *testing.T) {
	g := NewNetwork(2)
	g.AddEdge(0, 1, 3)
	g.AddEdge(0, 1, 4)
	var d Dinic
	if got := d.MaxFlow(g, 0, 1); got != 7 {
		t.Errorf("parallel edges flow = %d, want 7", got)
	}
}

func TestAntiparallelEdges(t *testing.T) {
	g := NewNetwork(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 0, 5)
	g.AddEdge(1, 2, 3)
	var d Dinic
	if got := d.MaxFlow(g, 0, 2); got != 3 {
		t.Errorf("antiparallel flow = %d, want 3", got)
	}
}

func TestFlowAccessors(t *testing.T) {
	g := NewNetwork(3)
	e0 := g.AddEdge(0, 1, 5)
	e1 := g.AddEdge(1, 2, 3)
	var d Dinic
	d.MaxFlow(g, 0, 2)
	if g.Flow(e0) != 3 || g.Flow(e1) != 3 {
		t.Errorf("flows = %d, %d, want 3, 3", g.Flow(e0), g.Flow(e1))
	}
	if g.Capacity(e0) != 5 {
		t.Errorf("capacity = %d, want 5", g.Capacity(e0))
	}
	from, to := g.EdgeEndpoints(e1)
	if from != 1 || to != 2 {
		t.Errorf("endpoints = (%d,%d), want (1,2)", from, to)
	}
}

func TestWarmStartAugmentation(t *testing.T) {
	// Dinic supports adding edges after a solve and augmenting.
	g := NewNetwork(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	var d Dinic
	if got := d.MaxFlow(g, 0, 3); got != 1 {
		t.Fatalf("initial flow = %d", got)
	}
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	if got := d.MaxFlow(g, 0, 3); got != 2 {
		t.Errorf("incremental flow = %d, want 2", got)
	}
}

func TestMinCutMatchesFlow(t *testing.T) {
	g, s, snk := buildClassic()
	var d Dinic
	flow := d.MaxFlow(g, s, snk)
	side := g.MinCutSourceSide(s)
	if !side[s] || side[snk] {
		t.Fatal("cut sides wrong")
	}
	// Cut capacity across the partition must equal the flow.
	if cut := cutCapacity(g, side); cut != flow {
		t.Errorf("cut capacity %d != flow %d", cut, flow)
	}
}

// cutCapacity sums the capacities of the edges leaving the source side.
func cutCapacity(g *Network, side []bool) int64 {
	var cut int64
	for id := 0; id < g.NumEdges(); id++ {
		from, to := g.EdgeEndpoints(2 * id)
		if side[from] && !side[to] {
			cut += g.Capacity(2 * id)
		}
	}
	return cut
}

func TestOutFlowConservation(t *testing.T) {
	g, s, snk := buildClassic()
	var d Dinic
	flow := d.MaxFlow(g, s, snk)
	for v := 0; v < g.NumNodes(); v++ {
		out := g.OutFlow(v)
		switch v {
		case s:
			if out != flow {
				t.Errorf("source out-flow %d != %d", out, flow)
			}
		case snk:
			if out != -flow {
				t.Errorf("sink out-flow %d != %d", out, -flow)
			}
		default:
			if out != 0 {
				t.Errorf("node %d violates conservation: %d", v, out)
			}
		}
	}
}

// randomNetwork builds a random DAG-ish network for property tests.
func randomNetwork(rng *stats.RNG, n, edges int, maxCap int64) (*Network, int, int) {
	g := NewNetwork(n)
	for i := 0; i < edges; i++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		if from == to {
			continue
		}
		g.AddEdge(from, to, int64(rng.Intn(int(maxCap)+1)))
	}
	return g, 0, n - 1
}

// Property: Dinic's flow is proven maximum on random networks. It respects
// every capacity, is conserved at every node, and its value equals the
// capacity of the residual cut MinCutSourceSide returns. By weak duality no
// flow exceeds any s–t cut, so a feasible flow equal to a cut is maximum.
func TestQuickDinicCertifiedByCut(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(12)
		g, s, snk := randomNetwork(rng, n, 3*n, 10)
		var d Dinic
		flow := d.MaxFlow(g, s, snk)
		for id := 0; id < g.NumEdges(); id++ {
			if fl := g.Flow(2 * id); fl < 0 || fl > g.Capacity(2*id) {
				return false
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			want := int64(0)
			switch v {
			case s:
				want = flow
			case snk:
				want = -flow
			}
			if g.OutFlow(v) != want {
				return false
			}
		}
		side := g.MinCutSourceSide(s)
		if !side[s] || side[snk] {
			return false
		}
		return cutCapacity(g, side) == flow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: max flow equals min cut capacity on random networks.
func TestQuickMaxFlowMinCut(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(10)
		g, s, snk := randomNetwork(rng, n, 3*n, 8)
		var d Dinic
		flow := d.MaxFlow(g, s, snk)
		side := g.MinCutSourceSide(s)
		if side[snk] {
			return false
		}
		return cutCapacity(g, side) == flow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: flow conservation holds at every internal node.
func TestQuickConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(10)
		g, s, snk := randomNetwork(rng, n, 4*n, 9)
		var d Dinic
		d.MaxFlow(g, s, snk)
		for v := 0; v < g.NumNodes(); v++ {
			if v != s && v != snk && g.OutFlow(v) != 0 {
				return false
			}
		}
		// No edge exceeds capacity, no negative flow.
		for id := 0; id < g.NumEdges(); id++ {
			fl := g.Flow(2 * id)
			if fl < 0 || fl > g.Capacity(2*id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: incremental Dinic equals from-scratch Dinic after edge additions.
func TestQuickWarmStartEqualsCold(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 3 + rng.Intn(8)
		g, s, snk := randomNetwork(rng, n, 2*n, 6)
		var warm Dinic
		total := warm.MaxFlow(g, s, snk)
		// Add a few more random edges, re-augment.
		extra := 1 + rng.Intn(2*n)
		type e struct {
			from, to int
			c        int64
		}
		var added []e
		for i := 0; i < extra; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			c := int64(rng.Intn(7))
			g.AddEdge(from, to, c)
			added = append(added, e{from, to, c})
		}
		total += warm.MaxFlow(g, s, snk)

		cold := NewNetwork(n)
		for id := 0; id < g.NumEdges(); id++ {
			from, to := g.EdgeEndpoints(2 * id)
			cold.AddEdge(from, to, g.Capacity(2*id))
		}
		var d2 Dinic
		return d2.MaxFlow(cold, s, snk) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { NewNetwork(-1) },
		func() { NewNetwork(2).AddEdge(0, 5, 1) },
		func() { NewNetwork(2).AddEdge(0, 1, -1) },
		func() {
			g := NewNetwork(2)
			g.AddEdge(0, 1, 1)
			g.Flow(1) // reverse edge ID
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestLargePath(t *testing.T) {
	// Long chain exercises deep DFS recursion in Dinic.
	const n = 2000
	g := NewNetwork(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1, 3)
	}
	var d Dinic
	if got := d.MaxFlow(g, 0, n-1); got != 3 {
		t.Errorf("chain flow = %d, want 3", got)
	}
}
