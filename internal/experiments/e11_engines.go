package experiments

import (
	"repro/internal/bipartite"
	"repro/internal/maxflow"
	"repro/internal/report"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:   "E11",
		Name: "matching-engines",
		Claim: "the Lemma 1 reduction needs an exact matching: first-fit greedy " +
			"strands requests an optimal matching serves, and the incremental " +
			"matcher's cardinality equals Dinic's max flow on the flow formulation",
		Run: runE11,
	})
}

// matchingInstance is a synthetic round snapshot: requests grouped by
// stripe, each stripe served by a random server subset (allocation k plus
// a swarm prefix), boxes with uniform slot capacities.
type matchingInstance struct {
	name  string
	caps  []int64
	adj   bipartite.Lists
	lefts []int
}

// synthesizeInstance builds a flash-crowd-shaped matching instance.
func synthesizeInstance(rng *stats.RNG, name string, n, stripes, perStripe, k, slots int) matchingInstance {
	caps := make([]int64, n)
	for i := range caps {
		caps[i] = int64(slots)
	}
	var adj bipartite.Lists
	var lefts []int
	l := 0
	for s := 0; s < stripes; s++ {
		servers := rng.SampleWithoutReplacement(n, k)
		for r := 0; r < perStripe; r++ {
			// Swarm effect: request r can also use up to r predecessors.
			nbr := make([]int32, 0, k+4)
			for _, b := range servers {
				nbr = append(nbr, int32(b))
			}
			extra := r
			if extra > 4 {
				extra = 4
			}
			for e := 0; e < extra; e++ {
				nbr = append(nbr, int32(rng.Intn(n)))
			}
			adj = append(adj, nbr)
			lefts = append(lefts, l)
			l++
		}
	}
	return matchingInstance{name: name, caps: caps, adj: adj, lefts: lefts}
}

func runE11(o Options) Result {
	rng := stats.NewRNG(mixSeed(o.Seed, 0xe11))
	scale := pick(o, 1, 4)
	instances := []matchingInstance{
		synthesizeInstance(rng, "sparse", 40*scale, 10*scale, 8, 3, 4),
		synthesizeInstance(rng, "flash-crowd", 40*scale, 4, 36*scale, 3, 6),
		synthesizeInstance(rng, "saturated", 30*scale, 15*scale, 8, 2, 3),
	}

	tbl := report.New("E11: matching engines — optimality gap",
		"instance", "requests", "optimal matched", "greedy matched", "greedy gap %", "max-flow agrees")
	for _, inst := range instances {
		m := bipartite.NewMatcher(inst.caps)
		for _, l := range inst.lefts {
			m.AddLeft(l)
		}
		m.AugmentAll(inst.adj)
		optimal := m.MatchedCount()

		g := bipartite.NewGreedy(inst.caps)
		_, greedy := g.Match(inst.adj, inst.lefts)

		gap := 0.0
		if optimal > 0 {
			gap = 100 * float64(optimal-greedy) / float64(optimal)
		}
		agree := maxFlow(inst) == int64(optimal)
		tbl.AddRowValues(inst.name, len(inst.lefts), optimal, greedy, gap, boolCell(agree))
	}
	tbl.AddNote("greedy = first-fit without reassignment; gap > 0 shows why Lemma 1's max-flow matters")
	tbl.AddNote("max-flow agrees = Dinic on source→request→box→sink reaches the matcher's cardinality; " +
		"timings are BenchmarkMaxflowDinic and BenchmarkMatcherGreedy")
	return Result{ID: "E11", Name: "matching-engines", Claim: registry["E11"].Claim,
		Tables: []*report.Table{tbl}}
}

// maxFlow solves the instance's Lemma 1 flow formulation with Dinic:
// unit edges source→request→allocated box, capacity edges box→sink.
func maxFlow(inst matchingInstance) int64 {
	nL := len(inst.lefts)
	nR := len(inst.caps)
	g := maxflow.NewNetwork(2 + nL + nR)
	src, sink := 0, 1
	for i, l := range inst.lefts {
		g.AddEdge(src, 2+i, 1)
		for _, r := range inst.adj[l] {
			g.AddEdge(2+i, 2+nL+int(r), 1)
		}
	}
	for r, c := range inst.caps {
		g.AddEdge(2+nL+r, sink, c)
	}
	var d maxflow.Dinic
	return d.MaxFlow(g, src, sink)
}
