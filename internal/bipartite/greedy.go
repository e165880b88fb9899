package bipartite

// Greedy computes a non-backtracking matching: each left node takes the
// first server with spare capacity and is never reassigned. It is the
// baseline against which the augmenting-path matcher's optimality is
// measured (experiment E11): greedy can strand requests that a maximum
// matching would serve, and the measured gap justifies the paper's
// max-flow formulation.
type Greedy struct {
	caps []int64
	load []int64
}

// NewGreedy creates a greedy matcher over the given slot capacities.
func NewGreedy(caps []int64) *Greedy {
	return &Greedy{caps: append([]int64(nil), caps...), load: make([]int64, len(caps))}
}

// Reset clears all loads.
func (g *Greedy) Reset() {
	for i := range g.load {
		g.load[i] = 0
	}
}

// Match assigns each left node in order; returns the chosen server per
// left (Unassigned where none had spare capacity) and the matched count.
func (g *Greedy) Match(adj Adjacency, lefts []int) ([]int, int) {
	out := make([]int, len(lefts))
	matched := 0
	var c Cursor
	for i, l := range lefts {
		out[i] = Unassigned
		adj.BeginServers(l, &c)
		for r := adj.NextServer(&c); r >= 0; r = adj.NextServer(&c) {
			if g.load[r] < g.caps[r] {
				g.load[r]++
				out[i] = r
				matched++
				break
			}
		}
	}
	return out, matched
}
