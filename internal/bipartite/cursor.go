package bipartite

// Cursor-based adjacency traversal.
//
// The adjacency exposes resumable pull-style enumeration, the matcher owns
// its cursors — one for the breadth searches, one per frame of the phase
// DFS's explicit stack — and the hot paths iterate with a plain loop. A
// callback enumeration would force every traversal site to build a closure
// over state the matcher mutates from inside it, so each probe would
// escape two heap objects; the cursor costs none.

// Cursor is the resumable state of one left node's server enumeration.
// Its fields are owned by the Adjacency implementation — the matcher only
// allocates cursors (reused forever) and passes them back; it never
// interprets Stage, Index, or ID.
type Cursor struct {
	Left  int32 // left node being enumerated (set by BeginServers)
	Stage int32 // implementation-defined enumeration stage
	Index int32 // implementation-defined position within the stage
	ID    int32 // implementation-defined auxiliary position (e.g. a slab id)
}

// traverser owns the cursor the breadth searches (phase 0, the layered
// BFS, canonicalization, the Hall violator) enumerate servers through:
// each finishes one left's enumeration before opening the next.
type traverser struct {
	adj Adjacency // bound for the duration of one public matcher call
	cur Cursor
}

// begin opens the enumeration of left l's servers.
func (t *traverser) begin(l int32) { t.adj.BeginServers(int(l), &t.cur) }

// next returns the next server, or -1 when exhausted.
func (t *traverser) next() int { return t.adj.NextServer(&t.cur) }

// Lists is an explicit adjacency: Lists[l] holds the rights able to serve
// left l, enumerated in order. It suits static instances — synthetic
// round snapshots and protocol comparisons — where the edges are known up
// front.
type Lists [][]int32

// BeginServers implements Adjacency.
func (a Lists) BeginServers(l int, c *Cursor) { *c = Cursor{Left: int32(l)} }

// NextServer implements Adjacency.
func (a Lists) NextServer(c *Cursor) int {
	ns := a[c.Left]
	if int(c.Index) >= len(ns) {
		return -1
	}
	c.Index++
	return int(ns[c.Index-1])
}

// CanServe implements Adjacency.
func (a Lists) CanServe(l, r int) bool {
	for _, x := range a[l] {
		if int(x) == r {
			return true
		}
	}
	return false
}
