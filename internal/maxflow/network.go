// Package maxflow implements maximum-flow computation on directed networks
// with int64 capacities. It is the substrate behind Lemma 1 of the paper
// ("Min-cut max-flow"): the existence of a connection matching that serves
// all outstanding stripe requests is exactly a max-flow feasibility
// question, and an infeasibility certificate (an *obstruction* in the
// paper's vocabulary) is a min cut.
//
// Dinic is the one solver. It is the oracle the round engine's matcher is
// checked against (TestRoundOracle) and the exact side of experiment E11.
package maxflow

import "fmt"

// Network is a directed flow network. Nodes are dense integers
// [0, NumNodes). Edges are added in forward/reverse residual pairs; edge
// IDs returned by AddEdge refer to the forward edge.
type Network struct {
	numNodes int
	// edges[i] and edges[i^1] are residual partners.
	to   []int32
	cap  []int64 // residual capacity
	init []int64 // capacity at construction time (for Capacity)
	adj  [][]int32
}

// NewNetwork creates a network with n nodes and no edges.
func NewNetwork(n int) *Network {
	if n < 0 {
		panic("maxflow: negative node count")
	}
	return &Network{numNodes: n, adj: make([][]int32, n)}
}

// NumNodes returns the node count.
func (g *Network) NumNodes() int { return g.numNodes }

// NumEdges returns the number of forward edges.
func (g *Network) NumEdges() int { return len(g.to) / 2 }

// AddEdge adds a directed edge with the given capacity and returns its ID.
// Capacities must be non-negative.
func (g *Network) AddEdge(from, to int, capacity int64) int {
	if from < 0 || from >= g.numNodes || to < 0 || to >= g.numNodes {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range [0,%d)", from, to, g.numNodes))
	}
	if capacity < 0 {
		panic("maxflow: negative capacity")
	}
	id := len(g.to)
	g.to = append(g.to, int32(to), int32(from))
	g.cap = append(g.cap, capacity, 0)
	g.init = append(g.init, capacity, 0)
	g.adj[from] = append(g.adj[from], int32(id))
	g.adj[to] = append(g.adj[to], int32(id+1))
	return id
}

// Flow returns the flow currently carried by forward edge id.
func (g *Network) Flow(id int) int64 {
	if id < 0 || id >= len(g.to) || id%2 != 0 {
		panic("maxflow: Flow wants a forward edge ID")
	}
	return g.cap[id^1]
}

// EdgeEndpoints returns (from, to) of forward edge id.
func (g *Network) EdgeEndpoints(id int) (int, int) {
	return int(g.to[id^1]), int(g.to[id])
}

// Capacity returns the original capacity of forward edge id.
func (g *Network) Capacity(id int) int64 { return g.init[id] }

// OutFlow returns the net flow leaving node v (flow out minus flow in),
// used by conservation checks in tests.
func (g *Network) OutFlow(v int) int64 {
	var total int64
	for _, e := range g.adj[v] {
		if e%2 == 0 {
			total += g.cap[e^1] // forward edge: its flow leaves v
		} else {
			total -= g.cap[e] // reverse residual: partner's flow enters v
		}
	}
	return total
}

// MinCutSourceSide returns, after a max-flow computation, the set of nodes
// reachable from source in the residual graph. The edges from this set to
// its complement form a minimum cut.
func (g *Network) MinCutSourceSide(source int) []bool {
	seen := make([]bool, g.numNodes)
	queue := make([]int32, 0, g.numNodes)
	seen[source] = true
	queue = append(queue, int32(source))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[v] {
			if g.cap[e] <= 0 {
				continue
			}
			w := g.to[e]
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}
