// Package bipartite maintains the per-round connection matching of the
// paper's Section 2.2: unit-demand left nodes (stripe requests) are matched
// to capacitated right nodes (boxes, capacity in stripe slots ⌊u_b·c⌋).
//
// The Matcher is incremental: requests persist across rounds, and each
// round only repairs invalidated assignments and augments new or unmatched
// requests, which is dramatically cheaper than recomputing a max flow from
// scratch (ablated in experiment E11). Per-round cost tracks live work:
// active lefts are kept in a dense list (not rediscovered by scanning every
// slot ever allocated), and BFS scratch is reset by epoch stamping in O(1)
// rather than clearing peak-sized arrays. Augmentation itself runs in
// Hopcroft–Karp-style blocking-flow phases over the whole dirty frontier
// (one layered BFS that stops at the first free slot, then vertex-disjoint
// shortest-path DFS augmentations over an explicit stack, so a path of any
// length costs no goroutine stack). Both halves of a phase walk a stripe's
// server list about once rather than once per request: requests of one
// server class share a memo of how far the list has been used up (see
// Hinted.ServerClass). When augmentation stalls, the alternating-
// reachability set from the unmatched requests is exactly a Hall violator
// — the paper's *obstruction* certificate (Lemma 1): a set X of requests
// with total box capacity U_B(X) < |X|/c.
package bipartite

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Unassigned marks a left node with no current server.
const Unassigned = -1

// noStable marks an empty stableTo cache slot (distinct from any right).
const noStable = -2

// Adjacency exposes the dynamic bipartite graph. The simulator implements
// it directly over its swarm and allocation state so that edges never need
// to be materialized.
//
// Servers are enumerated by pulling (see cursor.go). Enumeration order is
// behavior: it decides which maximum matching the search finds, pinned by
// the bit-identity differentials. The sequence must also be stable under
// matcher mutations: the matcher assigns, moves, and unassigns lefts
// between NextServer calls, so enumeration state must not depend on the
// matching.
type Adjacency interface {
	// BeginServers positions c at the start of left's server enumeration.
	BeginServers(left int, c *Cursor)
	// NextServer returns the next right able to serve c's left and
	// advances the cursor, or returns a negative value when the
	// enumeration is exhausted.
	NextServer(c *Cursor) int
	// CanServe reports whether right can currently serve left.
	CanServe(left, right int) bool
}

// Hinted is an optional Adjacency extension giving the matcher cheap
// paths around dead or settled probes. NoServer reports that left
// currently has no edge at all, which lets Revalidate and AugmentAll skip
// probes without enumerating servers; false certifies nothing. StableEdge
// reports that the edge (left, right) — known to exist when it was
// assigned — cannot disappear while both endpoints stay live (e.g. the
// server holds the stripe statically), letting Revalidate skip
// re-validating it each round.
//
// ServerClass exposes nested server sets to the blocking-flow phases. Lefts
// of one class (≥ 0) are ordered by need, and their server sets nest up to
// one excluded right each: for a, b of the same class with need(a) ≤
// need(b), every server of b other than a's self is also a server of a.
// Their enumerations nest the same way, position for position: a cursor
// opened for a class-C left may continue any class-C left of no lower
// need once its Left is set, yielding from its position on exactly the
// servers the new left's own enumeration yields from there. A negative
// class means the left has no such structure and is always enumerated in
// full. need and self must not change while a matcher call is running.
type Hinted interface {
	Adjacency
	NoServer(left int) bool
	StableEdge(left, right int) bool
	ServerClass(left int) (class, need int32, self int)
}

// rightRec packs every per-right field a search or an assignment touches
// into one 32-byte record, two to a cache line: capacity, load, the header
// of the right's assignment list, the epoch-stamped visit/level/done marks,
// and the BFS parent pointer. A box probe during augmentation reads one
// line instead of one per parallel population-sized slice, and assign and
// unassign find the list without a second, dependent load of a slice
// header. Capacities fit int32 (a box's slots; the exported API keeps
// int64 and capSlots rejects anything larger).
type rightRec struct {
	cap  int32
	load int32
	// The assigned lefts are arena slots [base, base+load) of a carve
	// [base, base+lcap); lcap == 0 means no list was carved yet.
	base int32
	lcap int32
	// visit compares against epoch: the search that last reached this
	// right. level is the BFS layer it was reached at (valid when visit
	// is current); done stamps rights exhausted by the current DFS phase.
	visit      uint32
	done       uint32
	level      int32
	parentLeft int32 // the left that discovered it (canonicalization BFS)
}

// leftMark is a left's search scratch, valid while visit is the current
// epoch: the BFS layer the search reached the left at, or consumed once
// the phase's DFS has put it on a path (each left is consumed at most
// once per phase, and nothing reads its layer after that).
type leftMark struct {
	visit uint32 // the search that last reached this left
	level int32
}

// consumed is the level of a left the current phase's DFS has used.
const consumed = -1

// Matcher holds the incremental assignment state.
type Matcher struct {
	rights []rightRec // per right node: capacity, load, search marks

	// The left-indexed arrays (assigned, posActive, posInRight, marks,
	// inDirty, stableTo) all have one length (EnsureLeft).
	assigned []int32 // left -> right, or Unassigned

	// Dense list of active lefts with back-pointers for O(1) removal, so
	// per-round scans cost O(live requests), not O(peak slots). A left is
	// active exactly when its back-pointer is not −1.
	activeLefts []int32
	posActive   []int32

	// posInRight[l] is the absolute arena slot holding assigned left l (−1
	// when unassigned): the back-pointer for O(1) removal from its right's
	// list. Both it and assigned are left-indexed, so unassign issues the
	// loads of the right's record and of the list slot independently.
	posInRight []int32

	// BFS scratch: visit stamps compare against epoch, making the
	// per-search reset O(1) instead of O(slots + boxes).
	epoch    uint32
	marks    []leftMark
	maxLevel int32 // layer at which the current phase found free capacity
	queue    []int32
	reachedR []int32 // rights first visited in the current search
	todo     []int32 // AugmentAll worklist scratch
	victims  []int   // SetCapacity eviction scratch, reused across calls
	// unmatchedOut is the AugmentAll return buffer (DrainAssigned
	// convention: valid until the next call, never retained by callers).
	unmatchedOut []int

	// memo is the phase's class table (see bfsLayer and dfsOpen):
	// open-addressed by Hinted.ServerClass and search depth, slots valid
	// while their stamp equals epoch. It is search scratch — absent until a
	// phase first records a class, then grown to twice the most slots any
	// one phase wrote and reused, so its size follows the search, never the
	// class space. memoLive counts the current phase's slots; memoWalk
	// tells bfsNext whether the left being expanded is enumerating its
	// servers or probing one.
	memo      []classMemo
	memoShift uint8
	memoLive  int
	memoWalk  bool

	// Lefts that may need (re-)augmentation: newly added or unassigned
	// since the last AugmentAll. Keeping them explicit makes AugmentAll
	// output-sensitive — it never scans the live set to find them.
	dirty   []int32
	inDirty []bool

	// stableTo[l] caches a right confirmed stable for l (StableEdge), or
	// noStable. Stability depends only on the left's identity and the
	// right, so the cache lives until the left ID is recycled by AddLeft.
	stableTo []int32

	// trav owns the cursor the breadth searches enumerate servers through
	// (see cursor.go); bound to the caller's adjacency at each public entry
	// point, reused across rounds.
	trav traverser
	// dfs is the phase DFS's explicit stack, one frame per path hop, reused
	// across phases and rounds.
	dfs []dfsFrame

	// arena holds every per-right assignment list, addressed by absolute
	// slot p = arena[p>>arenaShift][p&arenaMask]: a table of
	// arenaBlock-sized blocks that lists carve their capacity from, so
	// a right's first assignment allocates nothing (fresh-video churn
	// touches new rights every round). arenaNext is the next uncarved slot.
	// A list that outgrows its carve re-carves at twice the size and
	// abandons the old region; the arena only ever grows by whole blocks,
	// and existing slots never move.
	arena     [][]int32
	arenaNext int

	// Assignment log for event-driven callers: when enabled, every left
	// that receives an assignment (including intermediate moves along
	// augmenting paths) is appended here, so the caller can re-derive its
	// invalidation certificate without sweeping the active set. Entries
	// may repeat and may refer to lefts unassigned again later.
	logAssigns bool
	assignLog  []int32

	matchedCount int
}

// markDirty queues l for the next augmentation pass.
func (m *Matcher) markDirty(l int) {
	if !m.inDirty[l] {
		m.inDirty[l] = true
		m.dirty = append(m.dirty, int32(l))
	}
}

// NewMatcher creates a matcher over numRight boxes with the given slot
// capacities (len(caps) == numRight). The right space is fixed from here
// on; only capacities change (SetCapacity).
func NewMatcher(caps []int64) *Matcher {
	m := &Matcher{rights: make([]rightRec, len(caps))}
	for r, c := range caps {
		m.rights[r].cap = capSlots(c)
		m.rights[r].parentLeft = -1
	}
	return m
}

// capSlots narrows an API capacity to the record's int32, panicking on a
// value no caller can legitimately hold (core rejects such capacities
// before they reach the matcher).
func capSlots(c int64) int32 {
	if c < 0 || c > math.MaxInt32 {
		panic(fmt.Sprintf("bipartite: capacity %d outside [0, %d]", c, math.MaxInt32))
	}
	return int32(c)
}

// Capacity returns the capacity of right node r.
func (m *Matcher) Capacity(r int) int64 { return int64(m.rights[r].cap) }

// Load returns the current load of right node r.
func (m *Matcher) Load(r int) int64 { return int64(m.rights[r].load) }

// MatchedCount returns the number of currently matched left nodes.
func (m *Matcher) MatchedCount() int { return m.matchedCount }

// SetCapacity adjusts the capacity of right node r. Lowering below the
// current load unassigns arbitrary assigned lefts until feasible; the
// victims are returned so the caller can retry them. The returned slice
// is a scratch buffer owned by the matcher (the DrainAssigned
// convention): it is valid until the next SetCapacity call and must not
// be retained or modified.
func (m *Matcher) SetCapacity(r int, c int64) []int {
	rr := &m.rights[r]
	rr.cap = capSlots(c)
	m.victims = m.victims[:0]
	for rr.load > rr.cap {
		victim := *m.slot(rr.base + rr.load - 1)
		m.unassign(int(victim))
		m.victims = append(m.victims, int(victim))
	}
	if len(m.victims) == 0 {
		return nil
	}
	return m.victims
}

// EnsureLeft grows internal storage so left IDs up to n-1 are addressable.
func (m *Matcher) EnsureLeft(n int) {
	for len(m.assigned) < n {
		m.assigned = append(m.assigned, Unassigned)
		m.posActive = append(m.posActive, -1)
		m.posInRight = append(m.posInRight, -1)
		m.marks = append(m.marks, leftMark{})
		m.inDirty = append(m.inDirty, false)
		m.stableTo = append(m.stableTo, noStable)
	}
}

// AddLeft activates a left node (a new stripe request). The ID must be
// dense-ish; the simulator recycles IDs through a free list.
func (m *Matcher) AddLeft(l int) {
	m.EnsureLeft(l + 1)
	if m.posActive[l] >= 0 {
		panic(fmt.Sprintf("bipartite: AddLeft(%d) already active", l))
	}
	m.assigned[l] = Unassigned
	m.stableTo[l] = noStable // recycled ID: stability cache is stale
	m.posActive[l] = int32(len(m.activeLefts))
	m.activeLefts = append(m.activeLefts, int32(l))
	m.markDirty(l)
}

// RemoveLeft deactivates a left node, releasing its server slot.
func (m *Matcher) RemoveLeft(l int) {
	pos := m.posActive[l]
	if pos < 0 {
		panic(fmt.Sprintf("bipartite: RemoveLeft(%d) not active", l))
	}
	if m.assigned[l] != Unassigned {
		m.unassign(l)
	}
	last := m.activeLefts[len(m.activeLefts)-1]
	m.activeLefts[pos] = last
	m.posActive[last] = pos
	m.activeLefts = m.activeLefts[:len(m.activeLefts)-1]
	m.posActive[l] = -1
}

// Active reports whether left l is active.
func (m *Matcher) Active(l int) bool { return l < len(m.posActive) && m.posActive[l] >= 0 }

// ActiveCount returns the number of active lefts.
func (m *Matcher) ActiveCount() int { return len(m.activeLefts) }

// ActiveLefts returns the active lefts in list order: AddLeft appends and
// RemoveLeft swap-removes. The slice is the matcher's own; it is valid
// until the next AddLeft or RemoveLeft and must not be modified.
func (m *Matcher) ActiveLefts() []int32 { return m.activeLefts }

// ActivePos returns active left l's position in ActiveLefts.
func (m *Matcher) ActivePos(l int) int { return int(m.posActive[l]) }

// Touch reads, and changes nothing in, the two records an unassign of
// left l writes: its right's and its list slot. It returns a word of each
// (0 when l is unassigned), for a caller that reads a whole batch's
// records before it retires the batch, so that their cache misses overlap.
func (m *Matcher) Touch(l int) int32 {
	r := m.assigned[l]
	if r == Unassigned {
		return 0
	}
	return m.rights[r].load + *m.slot(m.posInRight[l])
}

// Server returns the right node assigned to left l, or Unassigned.
func (m *Matcher) Server(l int) int {
	if l >= len(m.assigned) {
		return Unassigned
	}
	return int(m.assigned[l])
}

// arenaBlock is the arena growth quantum (int32s per block) and
// maxListCarve the largest first carve: enough for typical box capacities
// (u·c slots) to never re-carve, small enough that a carve per touched
// right stays cheap at ten-million-box populations.
const (
	arenaShift   = 16
	arenaBlock   = 1 << arenaShift
	arenaMask    = arenaBlock - 1
	maxListCarve = 16
)

// slot addresses absolute arena slot p.
func (m *Matcher) slot(p int32) *int32 {
	return &m.arena[p>>arenaShift][p&arenaMask]
}

// carve reserves n consecutive arena slots and returns the first. A carve
// never straddles two allocations: when the current block cannot hold it,
// the rest of that block is abandoned and the arena grows — by one block,
// or for a list longer than a block by one allocation spanning several
// table entries, each entry a view from its own block boundary to the end
// of the allocation, so slot and AssignedLefts address it like any other.
func (m *Matcher) carve(n int) int32 {
	if n > len(m.arena)*arenaBlock-m.arenaNext {
		blocks := (n + arenaBlock - 1) / arenaBlock
		m.arenaNext = len(m.arena) * arenaBlock
		if m.arenaNext+blocks*arenaBlock > math.MaxInt32+1 {
			panic("bipartite: assignment-list arena exceeds 2^31 slots")
		}
		mem := make([]int32, blocks*arenaBlock)
		for b := 0; b < blocks; b++ {
			m.arena = append(m.arena, mem[b*arenaBlock:])
		}
	}
	base := m.arenaNext
	m.arenaNext += n
	return int32(base)
}

// growList gives right r room for one more left: its first carve (its
// capacity, clamped to [1, maxListCarve]), or a re-carve at twice the size
// that copies the list in order and re-points its lefts.
func (m *Matcher) growList(r int) {
	rr := &m.rights[r]
	n := 2 * int(rr.lcap)
	if n == 0 {
		n = min(max(int(rr.cap), 1), maxListCarve)
	}
	base := m.carve(n)
	for i := int32(0); i < rr.load; i++ {
		l := *m.slot(rr.base + i)
		*m.slot(base + i) = l
		m.posInRight[l] = base + i
	}
	rr.base, rr.lcap = base, int32(n)
}

// link appends l to r's assignment list and counts it matched — assign
// without the logs, which checkpoint decode restores separately.
func (m *Matcher) link(l, r int) {
	rr := &m.rights[r]
	if rr.load == rr.lcap {
		m.growList(r)
	}
	pos := rr.base + rr.load
	*m.slot(pos) = int32(l)
	m.assigned[l] = int32(r)
	m.posInRight[l] = pos
	rr.load++
	m.matchedCount++
}

// assign gives l a slot of r, first releasing any slot l holds, so the
// same call places a root and moves an interior left along a path.
func (m *Matcher) assign(l, r int) {
	if m.assigned[l] != Unassigned {
		m.unassign(l)
	}
	m.link(l, r)
	if m.logAssigns {
		m.assignLog = append(m.assignLog, int32(l))
	}
}

// unassign swap-removes l from its right's list: the list's last left
// moves into l's slot. The slot check reads the line the swap is about to
// write, so it costs nothing and catches a corrupt back-pointer before it
// spreads.
func (m *Matcher) unassign(l int) {
	r := m.assigned[l]
	pos := m.posInRight[l]
	rr := &m.rights[r]
	hole := m.slot(pos)
	if *hole != int32(l) {
		panic(fmt.Sprintf("bipartite: left %d not at its list slot %d of right %d", l, pos, r))
	}
	rr.load--
	last := *m.slot(rr.base + rr.load)
	*hole = last
	m.posInRight[last] = pos
	m.assigned[l] = Unassigned
	m.posInRight[l] = -1
	m.matchedCount--
	m.markDirty(l)
}

// revalidateOne re-checks left l's assignment and unassigns it when the
// edge has disappeared, returning true if the assignment was dropped.
// Shared by the full Revalidate sweep and targeted Invalidate calls so
// both paths apply identical stable-edge and dead-probe shortcuts.
func (m *Matcher) revalidateOne(adj Adjacency, hinter Hinted, l int) bool {
	r := m.assigned[l]
	if r == Unassigned {
		return false
	}
	if m.stableTo[l] == r {
		return false
	}
	if hinter != nil {
		if hinter.StableEdge(l, int(r)) {
			m.stableTo[l] = r
			return false
		}
		if hinter.NoServer(l) {
			m.unassign(l)
			return true
		}
	}
	if !adj.CanServe(l, int(r)) {
		m.unassign(l)
		return true
	}
	return false
}

// Revalidate drops every assignment whose edge has disappeared (server no
// longer possesses the chunk, e.g. a playback cache rolled past the
// window). Returns the number of dropped assignments.
func (m *Matcher) Revalidate(adj Adjacency) int {
	hinter, _ := adj.(Hinted)
	dropped := 0
	for _, l32 := range m.activeLefts {
		if m.revalidateOne(adj, hinter, int(l32)) {
			dropped++
		}
	}
	return dropped
}

// InvalidateBatch is the targeted, event-driven counterpart of the
// Revalidate sweep: callers that know which serving relations changed
// (cache freeze or expiry notifications) invalidate exactly the touched
// lefts, making per-round repair cost proportional to the change volume
// instead of the active set. Candidates are re-checked in active-list
// order — the relative order the sweep uses — so as long as the set
// covers every assignment whose edge actually disappeared, the drops
// (and therefore the dirty-queue order, the per-right list layouts, and
// every subsequent augmentation choice) are bit-for-bit identical to a
// full sweep: targeted repair is indistinguishable from Revalidate, just
// output-sensitive. The slice is sorted in place; duplicates and
// inactive lefts are skipped. Returns the number of drops (each dropped
// left is re-queued for augmentation).
func (m *Matcher) InvalidateBatch(adj Adjacency, lefts []int32) int {
	hinter, _ := adj.(Hinted)
	// slices.SortFunc, not sort.Slice: the reflection-based variant
	// allocates its closure header every call, and this runs once per
	// event-driven round on the hot invalidation path.
	slices.SortFunc(lefts, func(a, b int32) int {
		if pa, pb := m.posActive[a], m.posActive[b]; pa != pb {
			return int(pa - pb)
		}
		return int(a - b)
	})
	dropped := 0
	prev := int32(-1)
	for _, l := range lefts {
		if l == prev {
			continue
		}
		prev = l
		if m.posActive[l] < 0 {
			continue
		}
		if m.revalidateOne(adj, hinter, int(l)) {
			dropped++
		}
	}
	return dropped
}

// AssignedLefts returns the lefts currently assigned to right r. The
// slice is a view of the matcher's arena: it is invalidated by any assign
// or unassign touching r (unassigning lefts[i] swap-removes it, moving
// the former last element into position i), and must not be modified.
func (m *Matcher) AssignedLefts(r int) []int32 {
	rr := &m.rights[r]
	if rr.load == 0 {
		return nil
	}
	off := rr.base & arenaMask
	return m.arena[rr.base>>arenaShift][off : off+rr.load : off+rr.lcap]
}

// LogAssignments enables (or disables) the assignment log drained by
// DrainAssigned. While enabled, every assign — including intermediate
// moves along augmenting paths — records its left.
func (m *Matcher) LogAssignments(on bool) {
	m.logAssigns = on
	if !on {
		m.assignLog = m.assignLog[:0]
	}
}

// DrainAssigned appends the lefts assigned since the last drain to dst
// and clears the log. Entries may repeat, and a logged left may have been
// unassigned again afterwards — callers must re-check Server.
func (m *Matcher) DrainAssigned(dst []int32) []int32 {
	dst = append(dst, m.assignLog...)
	m.assignLog = m.assignLog[:0]
	return dst
}

// AugmentAll drives the matching to maximum over the dirty frontier: the
// lefts that were added or unassigned since the last call. It runs
// blocking-flow batch phases (augmentBatch), which end with no augmenting
// path from the implicit super-source, so the matching is maximum. It
// returns the remaining unmatched lefts in ascending order; a non-empty
// result certifies a Lemma 1 obstruction, extractable via HallViolator.
// The returned slice is a scratch buffer owned by the matcher (the
// DrainAssigned convention): it is valid until the next AugmentAll call
// and must not be retained across rounds.
func (m *Matcher) AugmentAll(adj Adjacency) []int {
	m.trav.adj = adj
	return m.settle(m.augmentBatch(adj, m.takeDirty()))
}

// takeDirty empties the dirty queue into the worklist of its lefts that
// are live and unassigned.
func (m *Matcher) takeDirty() []int32 {
	todo := m.todo[:0]
	for _, l := range m.dirty {
		m.inDirty[l] = false
		if m.posActive[l] >= 0 && m.assigned[l] == Unassigned {
			todo = append(todo, l)
		}
	}
	m.dirty = m.dirty[:0]
	return todo
}

// settle re-queues the lefts augmentation left unmatched and returns them
// sorted in AugmentAll's result buffer.
func (m *Matcher) settle(todo []int32) []int {
	if len(todo) == 0 {
		m.todo = todo
		return nil
	}
	m.unmatchedOut = m.unmatchedOut[:0]
	for _, l := range todo {
		m.unmatchedOut = append(m.unmatchedOut, int(l))
		// Still unmatched: must be retried on the next call.
		m.markDirty(int(l))
	}
	m.todo = todo[:0]
	sort.Ints(m.unmatchedOut)
	return m.unmatchedOut
}

// augmentBatch drives the whole frontier to maximum in blocking-flow
// phases (Hopcroft–Karp on the b-matching residual graph): each phase
// runs one layered BFS from every still-unmatched frontier left toward
// free right capacity, then augments along vertex-disjoint shortest
// paths with DFS restricted to layer edges, until no free right is
// reachable at all. Every phase multiplies the shortest augmenting-path
// length, so a crowd of k new requests costs O(√k) phases instead of k
// root-by-root searches — the difference between one BFS wave and
// thousands of long walks at high utilization. Returns the lefts that
// stayed unmatched (reusing todo's storage).
func (m *Matcher) augmentBatch(adj Adjacency, todo []int32) []int32 {
	hinter, hinted := adj.(Hinted)
	todo = m.direct(todo, hinter, hinted)
	for len(todo) > 0 {
		if !m.bfsLayer(todo, hinter, hinted) {
			break // no free right reachable: the matching is maximum
		}
		progressed := false
		for _, l := range todo {
			if m.assigned[l] != Unassigned || m.marks[l].visit != m.epoch || m.marks[l].level == consumed {
				continue
			}
			m.marks[l].level = consumed
			if m.dfsAugment(l, hinter) {
				progressed = true
			}
		}
		if !progressed {
			// The BFS reached free capacity along layer edges the DFS then
			// failed to retrace: the enumeration changed under the
			// matcher's mutations. Stopping here would return a
			// non-maximum matching as a false obstruction.
			panic(fmt.Sprintf("bipartite: phase reached free capacity at layer %d but found no augmenting path: "+
				"Adjacency enumeration is not stable under matcher mutations", m.maxLevel))
		}
		// Compact the frontier so later phases scan only open roots.
		rest := todo[:0]
		for _, l := range todo {
			if m.assigned[l] == Unassigned {
				rest = append(rest, l)
			}
		}
		todo = rest
	}
	return todo
}

// direct is phase 0, length-1 paths: most arrivals have a direct server
// with a free slot, and an early-exit probe resolves them, so the layered
// phases only ever run for lefts that genuinely need an alternating
// cascade. Returns the lefts it could not place (reusing todo's storage).
func (m *Matcher) direct(todo []int32, hinter Hinted, hinted bool) []int32 {
	rest := todo[:0]
	for _, l := range todo {
		if hinted && hinter.NoServer(int(l)) {
			rest = append(rest, l)
			continue
		}
		assigned := false
		m.trav.begin(l)
		for r := m.trav.next(); r >= 0; r = m.trav.next() {
			if m.rights[r].load < m.rights[r].cap {
				m.assign(int(l), r)
				assigned = true
				break
			}
		}
		if !assigned {
			rest = append(rest, l)
		}
	}
	return rest
}

// bfsLayer runs one phase's layered BFS: every unmatched frontier left
// sits at layer 0; full rights reached at layer d expand to their
// assigned lefts at layer d+1; the wave stops at the first right with
// spare capacity, whose layer — recorded in maxLevel — is where every
// shortest augmenting path ends. Reports whether any free right was
// reached. The layer of the free right is left partly unlabelled, which
// the DFS never misses: there it takes any right with spare capacity
// without reading labels, and no free right sits on a lower layer.
//
// Lefts of one ServerClass share most of their servers, and a right's
// label is its BFS distance whichever left reaches it first, so the wave
// enumerates each class once: the memo records, per class, the lowest need
// expanded in this search and the right that expansion excluded. A later
// left of the class with an equal or higher need could only re-see stamped
// rights — its servers nest inside the recorded expansion's — except that
// one excluded right, so it probes just that one with CanServe instead of
// walking its server list. A left with a lower need walks in full and
// takes over the class's slot. Visit stamps, levels, queue order and
// maxLevel come out exactly as if every left had walked. The phase DFS
// memoizes its walks the same way (see dfsOpen).
func (m *Matcher) bfsLayer(frontier []int32, hinter Hinted, hinted bool) bool {
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
	for layerStart, layerEnd := 0, len(q); layerStart < layerEnd; layerStart, layerEnd = layerEnd, len(q) {
		for i := layerStart; i < layerEnd; i++ {
			l := q[i]
			d := m.marks[l].level
			for r := m.bfsFirst(hinter, l); r >= 0; r = m.bfsNext() {
				rr := &m.rights[r]
				if rr.visit == m.epoch {
					continue
				}
				if rr.load < rr.cap {
					m.maxLevel = d
					m.queue = q
					return true
				}
				rr.visit = m.epoch
				rr.level = d
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
	m.queue = q
	return false
}

// classMemo is one slot of a phase's class table. The layered BFS keys
// its slots by class alone (depth −1) and records the lowest need it
// expanded; the phase DFS keys them by class and frame depth and records,
// for the lowest need whose frame walked there, where that walk stopped.
type classMemo struct {
	stamp uint32 // epoch of the phase that wrote the slot
	class int32
	depth int32
	need  int32  // lowest need recorded for the class in that phase
	self  int32  // the right that walk excluded, negative for none
	cur   Cursor // DFS slots: the walk's cursor, Left not yet re-set
}

// bfsFirst opens left l's enumeration for the layered BFS and returns the
// first right to label, negative when there is none. A left whose class
// was already expanded at a need no higher than its own yields at most the
// one right that expansion excluded; any other left records its class and
// walks its whole server list through the traverser's cursor.
func (m *Matcher) bfsFirst(hinter Hinted, l int32) int {
	m.memoWalk = true
	if hinter != nil {
		if class, need, self := hinter.ServerClass(int(l)); class >= 0 {
			e := m.memoSlot(class, -1)
			if e.stamp == m.epoch && e.need <= need {
				m.memoWalk = false
				if e.self >= 0 && m.rights[e.self].visit != m.epoch && hinter.CanServe(int(l), int(e.self)) {
					return int(e.self)
				}
				return -1
			}
			if e.stamp != m.epoch {
				m.memoLive++
			}
			*e = classMemo{stamp: m.epoch, class: class, depth: -1, need: need, self: int32(self)}
		}
	}
	m.trav.begin(l)
	return m.trav.next()
}

// bfsNext continues the enumeration bfsFirst opened.
func (m *Matcher) bfsNext() int {
	if !m.memoWalk {
		return -1
	}
	return m.trav.next()
}

// memoSlot returns the slot of (class, depth) in the current phase, or the
// empty slot where it belongs (stamp != epoch). The table keeps at least
// half its slots empty, growing before the probe when the next insert
// would not.
func (m *Matcher) memoSlot(class, depth int32) *classMemo {
	if 2*(m.memoLive+1) > len(m.memo) {
		m.growMemo()
	}
	mask := uint32(len(m.memo) - 1)
	for i := (uint32(class) + uint32(depth)*0x85EBCA6B) * 0x9E3779B1 >> m.memoShift; ; i = (i + 1) & mask {
		e := &m.memo[i]
		if e.stamp != m.epoch || e.class == class && e.depth == depth {
			return e
		}
	}
}

// growMemo doubles the class table, carrying over the current phase's
// slots.
func (m *Matcher) growMemo() {
	old := m.memo
	n := 2 * len(old)
	if n == 0 {
		n = 64
	}
	m.memo = make([]classMemo, n)
	m.memoShift = uint8(32 - bits.TrailingZeros(uint(n)))
	for i := range old {
		if old[i].stamp == m.epoch {
			*m.memoSlot(old[i].class, old[i].depth) = old[i]
		}
	}
}

// dfsFrame is one hop of the phase DFS: left l at layer (its stack
// index) enumerating its servers through its own cursor, and — while r is
// non-negative — descending through full layer right r, whose assigned
// lefts from index i on are still to be tried. at is the cursor as it was
// before r was pulled; class, need and self are l's ServerClass (class
// negative when l has none).
type dfsFrame struct {
	l, r, i           int32
	class, need, self int32
	cur, at           Cursor
}

// dfsAugment extends a shortest augmenting path from the root along layer
// edges only: usable rights for the left at depth d < maxLevel carry this
// phase's stamp at exactly layer d and descend into their assigned lefts at
// layer d+1, one frame per hop on m.dfs, so path length costs heap, not
// goroutine stack; at depth maxLevel any right with spare capacity ends
// the path. On success every left on the path moves onto its frame's
// right, so loads are restored everywhere except the free slot consumed at
// layer maxLevel. Exhausted rights are stamped done and dead for the rest
// of the phase; each left is consumed at most once (vertex-disjoint
// paths), which is what makes the phase a blocking flow.
//
// Every frame hands its position to later frames of its class and depth
// (dfsOpen): on exhaustion the end of its list, on success the cursor
// before the right it is on. hinter is the adjacency's Hinted view, nil
// when it has none.
func (m *Matcher) dfsAugment(root int32, hinter Hinted) bool {
	st := append(m.dfs[:0], dfsFrame{l: root, r: -1})
	m.dfsOpen(hinter, &st[0], 0)
	for len(st) > 0 {
		d := int32(len(st) - 1)
		f := &st[d]
		if f.r < 0 {
			f.at = f.cur
			r := m.trav.adj.NextServer(&f.cur)
			if r < 0 {
				m.dfsRecord(f, d, &f.cur)
				st = st[:d] // the parent tries its right's next left
				continue
			}
			if !m.onLayer(r, d) {
				continue
			}
			f.r = int32(r)
			if d == m.maxLevel {
				// Apply the path deepest first: the top left takes the
				// free slot, each left above it the slot its child vacated.
				for i := len(st) - 1; i >= 0; i-- {
					m.dfsRecord(&st[i], int32(i), &st[i].at)
					m.assign(int(st[i].l), int(st[i].r))
				}
				m.dfs = st[:0]
				return true
			}
			f.i = 0
		}
		lefts := m.AssignedLefts(int(f.r))
		for f.i < int32(len(lefts)) {
			l2 := lefts[f.i]
			f.i++
			if m.marks[l2].visit != m.epoch || m.marks[l2].level != d+1 {
				continue // unreached, off the next layer or consumed
			}
			m.marks[l2].level = consumed
			st = append(st, dfsFrame{l: l2, r: -1})
			m.dfsOpen(hinter, &st[d+1], d+1)
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

// onLayer reports whether right r can carry a path from a left at depth d:
// at depth maxLevel, any right with spare capacity; above it, a full right
// labelled layer d and not yet exhausted. Within a phase labels are fixed,
// done only grows and loads change only at layer maxLevel, where they only
// rise, so a right that fails this test fails it for the rest of the phase.
func (m *Matcher) onLayer(r int, d int32) bool {
	rr := &m.rights[r]
	if d == m.maxLevel {
		return rr.load < rr.cap
	}
	return rr.visit == m.epoch && rr.level == d && rr.done != m.epoch
}

// dfsOpen positions frame f, at depth d, in its left's enumeration. The
// memo slot of the left's class at depth d holds where this phase's walk
// of the lowest need so far stopped; every server of that walk's left
// before the stop fails onLayer at depth d for good. A left of no lower
// need has no server there but the walk's excluded right (Hinted's
// nesting), so unless that right can serve it on this layer, it resumes at
// the stop — the rights it skips are the ones its own walk would have
// rejected, in the same order. Any other left starts at the top.
func (m *Matcher) dfsOpen(hinter Hinted, f *dfsFrame, d int32) {
	f.class = -1
	if hinter != nil {
		class, need, self := hinter.ServerClass(int(f.l))
		if class >= 0 {
			f.class, f.need, f.self = class, need, int32(self)
			e := m.memoSlot(class, d)
			if e.stamp == m.epoch && e.need <= need &&
				(e.self < 0 || !m.onLayer(int(e.self), d) || !hinter.CanServe(int(f.l), int(e.self))) {
				f.cur = e.cur
				f.cur.Left = f.l
				return
			}
		}
	}
	m.trav.adj.BeginServers(int(f.l), &f.cur)
}

// dfsRecord offers cur, the position frame f at depth d stopped at, to its
// class's slot: it takes the slot unless the slot already holds a lower
// need. A frame of equal need that resumed from the slot holds the same
// guarantee its left's own full walk would, so it may move the stop on.
func (m *Matcher) dfsRecord(f *dfsFrame, d int32, cur *Cursor) {
	if f.class < 0 {
		return
	}
	e := m.memoSlot(f.class, d)
	if e.stamp == m.epoch {
		if e.need < f.need {
			return
		}
	} else {
		m.memoLive++
	}
	*e = classMemo{stamp: m.epoch, class: f.class, depth: d, need: f.need, self: f.self, cur: *cur}
}

// applyPath walks parent pointers back from the free right node, shifting
// assignments along the alternating path.
func (m *Matcher) applyPath(freeRight int) {
	r := freeRight
	for {
		l := int(m.rights[r].parentLeft)
		prev := m.assigned[l]
		m.assign(l, r)
		if prev == Unassigned {
			return
		}
		r = int(prev)
	}
}

// beginSearch starts a fresh BFS scope: bumping the epoch invalidates all
// visit stamps at once. On the (rare) wrap to zero the stamp arrays are
// cleared so stale marks from 2³²−1 searches ago cannot alias.
func (m *Matcher) beginSearch() {
	m.epoch++
	if m.epoch == 0 {
		for i := range m.marks {
			m.marks[i].visit = 0
		}
		for i := range m.rights {
			m.rights[i].visit = 0
			m.rights[i].done = 0
		}
		for i := range m.memo {
			m.memo[i].stamp = 0
		}
		m.epoch = 1
	}
}

// CanonicalizeDeficit rewrites a maximum-but-deficient matching so the
// *set* of matched lefts is canonical: the matroid-greedy optimum that
// covers the lexicographically smallest (by left id) coverable subset.
// Coverable left-sets form a transversal matroid, so this optimum is
// unique and independent of which maximum matching the search found — it
// is the fixpoint where no unmatched left can displace a matched left
// with a larger id along an alternating path. Exchanges strictly shrink
// the sorted matched-id vector, so any maximal exchange sequence
// terminates at that same fixpoint regardless of order; this is what makes
// any two maximum matchings yield the same stall set in a deficit round. The unmatched slice is updated in place (each
// displacement swaps a root for its victim) and returned re-sorted;
// cardinality never changes.
func (m *Matcher) CanonicalizeDeficit(adj Adjacency, unmatched []int) []int {
	m.trav.adj = adj
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(unmatched); i++ {
			u := unmatched[i]
			if m.posActive[u] < 0 || m.assigned[u] != Unassigned {
				continue
			}
			if v, ok := m.displace(adj, u); ok {
				if v >= 0 {
					unmatched[i] = v
				} else {
					// The matching was not maximum after all: the root
					// augmented without displacing anyone.
					unmatched = append(unmatched[:i], unmatched[i+1:]...)
					i--
				}
				changed = true
			}
		}
		if changed {
			sort.Ints(unmatched)
		}
	}
	return unmatched
}

// displace runs one canonicalization exchange: an alternating BFS from
// the unmatched root stopping at the first reached assigned left with a
// larger id, which is unassigned so the path can shift the root into the
// matching. It returns (victim, true) after an exchange, (-1, true) if
// the root augmented outright onto spare capacity, and (-1, false) when
// no exchange exists (the root already belongs to the canonical stall
// set).
func (m *Matcher) displace(adj Adjacency, root int) (int, bool) {
	if hinter, ok := adj.(Hinted); ok && hinter.NoServer(root) {
		return -1, false
	}
	m.beginSearch()
	m.queue = m.queue[:0]
	m.queue = append(m.queue, int32(root))
	m.marks[root].visit = m.epoch
	for head := 0; head < len(m.queue); head++ {
		l := m.queue[head]
		victim, server := -1, -1
		m.trav.begin(l)
	probe:
		for r := m.trav.next(); r >= 0; r = m.trav.next() {
			rr := &m.rights[r]
			if rr.visit == m.epoch {
				continue
			}
			rr.visit = m.epoch
			rr.parentLeft = l
			if rr.load < rr.cap {
				// The matching was not maximum after all: plain augment.
				server = r
				break
			}
			for _, l2 := range m.AssignedLefts(r) {
				if m.marks[l2].visit == m.epoch {
					continue
				}
				m.marks[l2].visit = m.epoch
				if int(l2) > root {
					victim, server = int(l2), r
					break probe
				}
				m.queue = append(m.queue, l2)
			}
		}
		if server >= 0 {
			if victim >= 0 {
				m.unassign(victim)
			}
			m.applyPath(server)
			return victim, true
		}
	}
	return -1, false
}

// Violator is a Hall-condition violation certificate: a set of requests
// Lefts whose entire server set Rights has insufficient capacity —
// the paper's "obstruction". Slots == Σ caps(Rights) < len(Lefts).
type Violator struct {
	Lefts  []int
	Rights []int
	Slots  int64
}

// HallViolator extracts the obstruction certificate after AugmentAll has
// returned a non-empty unmatched set. It computes alternating reachability
// from all unmatched lefts; the reached lefts X and rights B(X) satisfy
// U_B(X) < |X| (in slots). Returns nil if every active left is matched.
func (m *Matcher) HallViolator(adj Adjacency) *Violator {
	m.trav.adj = adj
	m.beginSearch()
	m.queue = m.queue[:0]
	m.reachedR = m.reachedR[:0]
	for _, l := range m.activeLefts {
		if m.assigned[l] == Unassigned {
			m.marks[l].visit = m.epoch
			m.queue = append(m.queue, l)
		}
	}
	if len(m.queue) == 0 {
		return nil
	}
	for head := 0; head < len(m.queue); head++ {
		l := m.queue[head]
		m.trav.begin(l)
		for r := m.trav.next(); r >= 0; r = m.trav.next() {
			if m.rights[r].visit == m.epoch {
				continue
			}
			m.rights[r].visit = m.epoch
			m.reachedR = append(m.reachedR, int32(r))
			for _, l2 := range m.AssignedLefts(r) {
				if m.marks[l2].visit != m.epoch {
					m.marks[l2].visit = m.epoch
					m.queue = append(m.queue, l2)
				}
			}
		}
	}
	v := &Violator{
		Lefts:  make([]int, len(m.queue)),
		Rights: make([]int, len(m.reachedR)),
	}
	for i, l := range m.queue {
		v.Lefts[i] = int(l)
	}
	sort.Ints(v.Lefts)
	for i, r := range m.reachedR {
		v.Rights[i] = int(r)
		v.Slots += int64(m.rights[r].cap)
	}
	sort.Ints(v.Rights)
	return v
}

// Verify checks internal consistency and edge validity of the current
// matching; it returns an error describing the first violation found.
// Tests and the simulator's paranoid mode call it.
func (m *Matcher) Verify(adj Adjacency) error {
	// Every list inside its carve and every carve inside the arena first,
	// so the per-left slot reads below stay in bounds.
	for r := range m.rights {
		rr := &m.rights[r]
		if rr.load < 0 || rr.load > rr.lcap || rr.base < 0 || int(rr.base)+int(rr.lcap) > m.arenaNext {
			return fmt.Errorf("right %d list [%d, %d+%d) with load %d outside its carve or the arena's %d slots",
				r, rr.base, rr.base, rr.lcap, rr.load, m.arenaNext)
		}
	}
	var matched int
	loads := make([]int32, len(m.rights))
	activeSeen := 0
	for l := range m.assigned {
		if m.posActive[l] < 0 {
			if m.assigned[l] != Unassigned {
				return fmt.Errorf("inactive left %d has assignment %d", l, m.assigned[l])
			}
			if m.posActive[l] != -1 {
				return fmt.Errorf("inactive left %d still in active list", l)
			}
			continue
		}
		activeSeen++
		pos := m.posActive[l]
		if pos < 0 || int(pos) >= len(m.activeLefts) || m.activeLefts[pos] != int32(l) {
			return fmt.Errorf("active-list back-pointer corrupt for left %d", l)
		}
		r := m.assigned[l]
		if r == Unassigned {
			if !m.inDirty[l] {
				return fmt.Errorf("unmatched left %d not queued for augmentation", l)
			}
			continue
		}
		matched++
		loads[r]++
		if !adj.CanServe(l, int(r)) {
			return fmt.Errorf("assignment %d->%d has no edge", l, r)
		}
		// Distinct lefts cannot share a slot, so every assigned left sitting
		// at its own slot inside [base, base+load) makes the list exactly
		// the load lefts assigned to r.
		rr := &m.rights[r]
		if pos := m.posInRight[l]; pos < rr.base || pos-rr.base >= rr.load || *m.slot(pos) != int32(l) {
			return fmt.Errorf("back-pointer corrupt for left %d", l)
		}
	}
	if activeSeen != len(m.activeLefts) {
		return fmt.Errorf("active list has %d lefts, actual %d", len(m.activeLefts), activeSeen)
	}
	if matched != m.matchedCount {
		return fmt.Errorf("matchedCount=%d, actual=%d", m.matchedCount, matched)
	}
	for r := range m.rights {
		if loads[r] != m.rights[r].load {
			return fmt.Errorf("right %d load=%d, actual=%d", r, m.rights[r].load, loads[r])
		}
		if loads[r] > m.rights[r].cap {
			return fmt.Errorf("right %d over capacity: %d > %d", r, loads[r], m.rights[r].cap)
		}
	}
	return nil
}
