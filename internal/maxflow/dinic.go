package maxflow

// Dinic implements Dinic's blocking-flow algorithm: O(V²E) in general,
// O(E·√V) on the unit-capacity bipartite networks produced by connection
// matching.
//
// The struct retains its scratch buffers between calls, so reusing one
// Dinic value across rounds avoids per-round allocation.
type Dinic struct {
	level []int32
	iter  []int32
	queue []int32
}

// MaxFlow pushes as much flow as possible from source to sink and returns
// the amount pushed by this call. It may be called repeatedly on the same
// network as edges are added; each call augments the existing flow to a
// new maximum (warm start).
func (d *Dinic) MaxFlow(g *Network, source, sink int) int64 {
	if source == sink {
		return 0
	}
	n := g.numNodes
	if cap(d.level) < n {
		d.level = make([]int32, n)
		d.iter = make([]int32, n)
		d.queue = make([]int32, 0, n)
	}
	d.level = d.level[:n]
	d.iter = d.iter[:n]

	var total int64
	for d.bfs(g, source, sink) {
		for i := range d.iter {
			d.iter[i] = 0
		}
		for {
			f := d.dfs(g, int32(source), int32(sink), int64(1)<<62)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}

// bfs builds the level graph; returns false when the sink is unreachable.
func (d *Dinic) bfs(g *Network, source, sink int) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	d.queue = d.queue[:0]
	d.level[source] = 0
	d.queue = append(d.queue, int32(source))
	for head := 0; head < len(d.queue); head++ {
		v := d.queue[head]
		for _, e := range g.adj[v] {
			if g.cap[e] <= 0 {
				continue
			}
			w := g.to[e]
			if d.level[w] < 0 {
				d.level[w] = d.level[v] + 1
				d.queue = append(d.queue, w)
			}
		}
	}
	return d.level[sink] >= 0
}

// dfs sends one blocking-flow augmenting path.
func (d *Dinic) dfs(g *Network, v, sink int32, f int64) int64 {
	if v == sink {
		return f
	}
	for ; d.iter[v] < int32(len(g.adj[v])); d.iter[v]++ {
		e := g.adj[v][d.iter[v]]
		w := g.to[e]
		if g.cap[e] <= 0 || d.level[w] != d.level[v]+1 {
			continue
		}
		limit := f
		if g.cap[e] < limit {
			limit = g.cap[e]
		}
		got := d.dfs(g, w, sink, limit)
		if got > 0 {
			g.cap[e] -= got
			g.cap[e^1] += got
			return got
		}
	}
	d.level[v] = -1 // dead end; prune
	return 0
}
