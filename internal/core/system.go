package core

import (
	"fmt"
	"math"

	"repro/internal/bipartite"
	"repro/internal/swarm"
	"repro/internal/video"
)

// issuance is a scheduled future request: 12 bytes. Its due round is the
// one its pending ring bucket stands for (pendingRound), and it forwards a
// copy to its viewer exactly when the viewer is not the requester (mirror).
type issuance struct {
	stripe    video.StripeID
	requester int32
	viewer    int32
}

// mirror returns the box receiving a forwarded copy (lag 1), or −1: the
// viewer, when a relay requests on its behalf.
func (iss issuance) mirror() int32 {
	if iss.requester != iss.viewer {
		return iss.viewer
	}
	return -1
}

// maxIssuanceDelay bounds how far ahead a strategy may schedule a request;
// the pending ring is sized from it. The relayed strategy's t+3 issuances
// are the current maximum.
const maxIssuanceDelay = 4

// boxRec packs the per-box engine state the hot paths probe — admission's
// outstanding check, completion's busy→idle transition and the idle index
// position — into one 8-byte record. These used to live in parallel
// population-sized slices; at 10⁵–10⁶ boxes every probe then touched
// several distinct cache lines, and the matcher's batch BFS sits right
// next to these probes each round. A box's capacity is its matcher right's
// (Matcher.Capacity), kept nowhere else.
type boxRec struct {
	outstanding int32 // unfinished requests + pending issuances
	idlePos     int32 // index in idleList, or −1 while busy
}

// busy reports whether the box has work outstanding: a viewing's requests
// or scheduled issuances. A busy box admits no demand and is not idle.
func (b *boxRec) busy() bool { return b.outstanding > 0 }

// System is a runnable instance of the paper's video system.
type System struct {
	cfg        Config
	cat        video.Catalog
	n          int
	totalSlots int64
	matcher    *bipartite.Matcher
	tracker    *swarm.Tracker
	round      int
	failed     bool

	// adj is the Section 2.2 graph every matcher call sees,
	// adjacency{s}. A field rather than a literal at each call so that a
	// differential test can substitute another view of the same graph.
	adj bipartite.Hinted

	// Request slot arrays (index = matcher left ID). Progress is implicit
	// (see progressView): clock − reqBase[slot] for a live slot. A slot is
	// live exactly while it is an active left of the matcher, whose list
	// (ActiveLefts: appended at issue, swap-removed at retirement) is the
	// one live list; its order is behaviour (retirement order, the sweep).
	reqStripe []video.StripeID
	reqStart  []int32
	reqBox    []int32 // downloader (the relay for relayed requests)
	reqViewer []int32 // box whose playback depends on this request
	reqBase   []int32
	freeSlots []int32

	// clock ticks once per round that ran to its end — round+1 between
	// Steps, round on a FailStop-halted system — so a matched request
	// advances without being touched and a stalled one stays put by
	// bumping its base. retireRing buckets every live slot by the clock
	// at which it is due, base+T (mod T+1), as pendingRing does issuance;
	// a slot that stalled since it was bucketed moves on when its bucket
	// drains. Both are derived: the checkpoint carries neither, and decode
	// rebuilds them from round and progress.
	clock         int32
	retireRing    [][]int32
	retireScratch []uint64

	// avail indexes the playback-cache entries (the swarm half of the
	// Section 2.2 graph); the allocation half lives in cfg.Alloc.
	avail availabilityStore

	// boxes is the compact per-box record array (see boxRec); idleList is
	// the dense half of the intrusive idle-box set, maintained at the
	// busy/idle transitions in admit and finishOne so idle-box queries
	// cost O(idle), never O(n). boxes[b].idlePos back-points into it.
	// idleBits mirrors idleList's membership as a hierarchical bitmap so
	// sorted enumeration (View.IdleBoxes) costs O(idle) without a
	// per-call sort; idleList keeps its insertion order — VisitIdle's
	// iteration order and the checkpoint encoding depend on it.
	boxes    []boxRec
	idleList []int32
	idleBits idleBits

	// view is the one View handed to demand generators each round;
	// caching it keeps Step's steady state allocation-free.
	view View

	// pendingRing holds scheduled future requests bucketed by due round
	// (round mod len), so issuing costs O(due this round), not O(pending).
	pendingRing [][]issuance

	// Event-driven invalidation state (see invalidation.go). needSweep
	// forces the full Revalidate sweep after stall rounds until
	// certificates can be rebuilt.
	needSweep   bool
	recheckRing [][]int32
	assignedLog []int32
	candScratch []int32

	// stripeScratch holds an obstruction's request stripes while
	// recordObstruction counts the distinct ones, reused across rounds.
	stripeScratch []video.StripeID
	// heldScratch is selfPossesses' answer, one flag per stripe index.
	heldScratch []bool

	// fingerprint caches Fingerprint once fingerprinted is set.
	fingerprint   uint64
	fingerprinted bool

	// ahead holds the sum of the words the batch-ahead loops read (see
	// readAhead); nothing reads it.
	ahead int32

	metrics runMetrics
}

// NewSystem validates the configuration and builds the system.
func NewSystem(cfg Config) (*System, error) {
	caps, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	for b, c := range caps {
		if c > math.MaxInt32 {
			return nil, fmt.Errorf("core: box %d capacity %d slots overflows the matcher's capacity record", b, c)
		}
	}
	cat := cfg.Alloc.Catalog()
	n := cfg.Alloc.NumBoxes()
	s := &System{
		cfg:         cfg,
		cat:         cat,
		n:           n,
		matcher:     bipartite.NewMatcher(caps),
		tracker:     swarm.NewTracker(cat.M, cat.T, cfg.Mu),
		boxes:       make([]boxRec, n),
		pendingRing: make([][]issuance, maxIssuanceDelay+1),
		avail:       newIndexedAvailability(cat.NumStripes(), n, cat.T),
		recheckRing: make([][]int32, cat.T+2),
		retireRing:  make([][]int32, cat.T+1),
		heldScratch: make([]bool, cat.C),
		clock:       1,
	}
	s.adj = adjacency{s}
	s.matcher.LogAssignments(true)
	s.idleList = make([]int32, n)
	for b := range s.idleList {
		s.idleList[b] = int32(b)
		s.boxes[b].idlePos = int32(b)
	}
	s.idleBits.initFull(n)
	s.view = View{s}
	for _, c := range caps {
		s.totalSlots += c
	}
	s.metrics.init(n)
	return s, nil
}

// markBusy removes box b from the idle set (swap-remove, O(1)).
func (s *System) markBusy(b int32) {
	pos := s.boxes[b].idlePos
	last := s.idleList[len(s.idleList)-1]
	s.idleList[pos] = last
	s.boxes[last].idlePos = pos
	s.idleList = s.idleList[:len(s.idleList)-1]
	s.boxes[b].idlePos = -1
	s.idleBits.clear(b)
}

// markIdle returns box b to the idle set.
func (s *System) markIdle(b int32) {
	s.boxes[b].idlePos = int32(len(s.idleList))
	s.idleList = append(s.idleList, b)
	s.idleBits.set(b)
}

// Round returns the last simulated round. Rounds are 1-based — a demand
// arriving "during [t−1, t)" is admitted at round t ≥ 1 — so Round is 0
// before the first Step.
func (s *System) Round() int { return s.round }

// Failed reports whether a FailStop obstruction has occurred.
func (s *System) Failed() bool { return s.failed }

// Catalog returns the system's catalog.
func (s *System) Catalog() video.Catalog { return s.cat }

// NumBoxes returns the number of boxes.
func (s *System) NumBoxes() int { return s.n }

// TotalSlots returns the total matcher capacity in stripe slots.
func (s *System) TotalSlots() int64 { return s.totalSlots }

// allocSlot takes a request slot from the free list or grows the arrays.
func (s *System) allocSlot() int32 {
	if len(s.freeSlots) > 0 {
		slot := s.freeSlots[len(s.freeSlots)-1]
		s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
		return slot
	}
	slot := len(s.reqStripe)
	if slot == maxPacked {
		panic(fmt.Sprintf("core: request slot %d does not fit a cache entry", slot))
	}
	s.reqStripe = append(s.reqStripe, 0)
	s.reqStart = append(s.reqStart, 0)
	s.reqBox = append(s.reqBox, 0)
	s.reqViewer = append(s.reqViewer, 0)
	s.reqBase = append(s.reqBase, 0)
	return int32(slot)
}

// schedule enqueues a request delay rounds ahead on the pending ring,
// within the ring's horizon (strategies schedule at most maxIssuanceDelay
// rounds ahead).
func (s *System) schedule(delay int, iss issuance) {
	if delay <= 0 || delay > maxIssuanceDelay {
		panic(fmt.Sprintf("core: issuance scheduled %d rounds ahead (max %d)", delay, maxIssuanceDelay))
	}
	bucket := (s.round + delay) % len(s.pendingRing)
	s.pendingRing[bucket] = append(s.pendingRing[bucket], iss)
}

// emptied returns a drained ring bucket for refilling: its own storage,
// unless that is over twice what the bucket needs, as the first rounds'
// wave of admissions leaves the buckets it lands in. A bucket needs room
// for twice what it held, for four times its share of the live requests'
// issuances or retirements (live/T a round) and for 1024 records: a
// steady load and its swings keep their storage, small systems keep all
// of theirs, and the wave's goes back to the heap.
func emptied[E any](bucket []E, live, T int) []E {
	need := max(2*len(bucket), 4*live/T, 1024)
	if cap(bucket) <= 2*need {
		return bucket[:0]
	}
	return make([]E, 0, need)
}

// pendingRound returns the round pending ring bucket b is due at between
// Steps: the first round after this one that maps to it. The current
// round's own bucket, drained when the round began, stands for the round
// a whole ring ahead.
func (s *System) pendingRound(b int) int {
	n := len(s.pendingRing)
	return s.round + 1 + ((b-s.round-1)%n+n)%n
}

// issueRequest creates an active request and its cache entries: the
// requester's own and, when it requests for another viewer, the copy it
// forwards to the viewer one round behind.
func (s *System) issueRequest(stripe video.StripeID, requester, viewer int32) {
	slot := s.allocSlot()
	s.reqStripe[slot] = stripe
	s.reqStart[slot] = int32(s.round)
	s.reqBox[slot] = requester
	s.reqViewer[slot] = viewer
	s.reqBase[slot] = s.clock
	s.bucketRetire(slot)
	s.matcher.AddLeft(int(slot))
	if !s.cfg.DisableCacheServing {
		s.avail.add(stripe, liveEntry(requester, int32(s.round), slot, 0))
		if viewer != requester {
			s.avail.add(stripe, liveEntry(viewer, int32(s.round), slot, 1))
		}
	}
	if live := s.matcher.ActiveCount(); live > s.metrics.peakRequests {
		s.metrics.peakRequests = live
	}
}

// bucketRetire files live slot under the clock at which its progress
// reaches T.
func (s *System) bucketRetire(slot int32) {
	b := (int(s.reqBase[slot]) + s.cat.T) % len(s.retireRing)
	s.retireRing[b] = append(s.retireRing[b], slot)
}

// progress returns the view every progress reader goes through.
func (s *System) progress() progressView { return progressView{s.clock, s.reqBase} }

// retireRequest completes a request: frees the slot, freezes its cache
// entries, and releases the viewer when its last request finishes.
func (s *System) retireRequest(slot int32) {
	s.avail.retire(s.reqStripe[slot], slot, s.progress().of(slot))
	s.matcher.RemoveLeft(int(slot))
	s.freeSlots = append(s.freeSlots, slot)
	s.finishOne(s.reqViewer[slot])
}

// finishOne decrements a viewer's outstanding work and frees the box when
// everything (requests and scheduled issuances) has completed.
func (s *System) finishOne(viewer int32) {
	box := &s.boxes[viewer]
	box.outstanding--
	if box.outstanding == 0 {
		s.markIdle(viewer)
		s.metrics.completedViewings++
	}
}

// SetCapacity changes box b's upload capacity to slots mid-run (failure
// injection and the capacity-change rounds of the differential tests). The
// value is the matcher slot capacity — relay reservations, if any, are the
// caller's business. Lowering below the current load evicts assignments
// deterministically; the victims re-enter the dirty queue and are
// re-matched (or stall) on the next Step.
func (s *System) SetCapacity(b int, slots int64) error {
	if b < 0 || b >= s.n {
		return fmt.Errorf("core: SetCapacity of unknown box %d", b)
	}
	if slots < 0 {
		return fmt.Errorf("core: box %d capacity %d is negative", b, slots)
	}
	if slots > math.MaxInt32 {
		return fmt.Errorf("core: box %d capacity %d slots overflows the matcher's capacity record", b, slots)
	}
	s.totalSlots += slots - s.matcher.Capacity(b)
	s.matcher.SetCapacity(b, slots)
	return nil
}

// adjacency implements bipartite.Adjacency over the allocation and the
// playback caches — the graph G of Section 2.2.
type adjacency struct{ s *System }

// BeginServers implements bipartite.Adjacency: it opens the enumeration
// of B(x), allocation boxes first (they hold the full stripe), then swarm
// predecessors with enough progress. Stage 0 walks the allocation holders
// by index; stage 1 walks the availability store via its pull-style
// visitHead/visitStep cursor. Both substrates are quiescent during
// matching — entries are added/retired/expired only in other Step
// phases — so an open cursor stays valid while the matcher mutates.
func (a adjacency) BeginServers(left int, c *bipartite.Cursor) {
	c.Left = int32(left)
	c.Stage = 0
	c.Index = 0
}

// NextServer implements bipartite.Adjacency; it yields -1 when the
// server list of the cursor's request is exhausted.
func (a adjacency) NextServer(c *bipartite.Cursor) int {
	s := a.s
	slot := c.Left
	stripe := s.reqStripe[slot]
	requester := s.reqBox[slot]
	if c.Stage == 0 {
		holders := s.cfg.Alloc.Holders(stripe)
		for int(c.Index) < len(holders) {
			b := holders[c.Index]
			c.Index++
			if b != requester {
				return int(b)
			}
		}
		if s.cfg.DisableCacheServing {
			c.Stage = 2
			return -1
		}
		c.Stage = 1
		c.ID = s.avail.visitHead(stripe)
	}
	if c.Stage == 1 {
		pv := s.progress()
		box, next := s.avail.visitStep(stripe, c.ID, requester, pv.of(slot), pv)
		c.ID = next
		if box >= 0 {
			return int(box)
		}
		c.Stage = 2
	}
	return -1
}

// CanServe tests a single candidate against the same B(x) NextServer
// enumerates.
func (a adjacency) CanServe(left, right int) bool {
	s := a.s
	slot := int32(left)
	stripe := s.reqStripe[slot]
	requester := s.reqBox[slot]
	if int32(right) == requester {
		return false
	}
	if s.cfg.Alloc.Stores(right, stripe) {
		return true
	}
	if s.cfg.DisableCacheServing {
		return false
	}
	pv := s.progress()
	return s.avail.canServe(stripe, int32(right), pv.of(slot), pv)
}

// NoServer implements bipartite.Hinted: a request of a stripe that no box
// stores and no cache entry holds has no server at all, so the matcher
// skips its probes.
func (a adjacency) NoServer(left int) bool {
	s := a.s
	stripe := s.reqStripe[int32(left)]
	return s.cfg.Alloc.Replicas(stripe) == 0 && s.avail.empty(stripe)
}

// StableEdge implements bipartite.Hinted: an assignment to a box that
// statically stores the stripe can never go stale — the allocation does
// not change and the requester exclusion is fixed per slot — so the
// matcher's Revalidate skips re-probing it.
func (a adjacency) StableEdge(left, right int) bool {
	s := a.s
	return s.cfg.Alloc.Stores(right, s.reqStripe[int32(left)])
}

// ServerClass implements bipartite.Hinted: requests of one stripe have
// server sets nested by progress. Allocation holders serve every request of
// the stripe and a cache entry serves exactly the requests it is ahead of,
// so a request further along has no server a request behind it lacks —
// other than the box the latter must skip, its own requester.
func (a adjacency) ServerClass(left int) (class, need int32, self int) {
	s := a.s
	return int32(s.reqStripe[left]), s.progress().of(int32(left)), int(s.reqBox[left])
}

// selfPossesses reports, per stripe index of video v, whether box b
// already has the stripe available locally: stored by allocation, or
// completely cached from a recent viewing (frozen full-progress entry
// inside the window). One walk of b's cache entries answers for every
// stripe. The slice is scratch, valid until the next call.
func (s *System) selfPossesses(b int32, v video.ID) []bool {
	held := s.heldScratch
	first := s.cat.Stripe(v, 0)
	for i := range held {
		held[i] = s.cfg.Alloc.Stores(int(b), first+video.StripeID(i))
	}
	if !s.cfg.DisableCacheServing {
		s.avail.markFull(b, first, int32(s.cat.T), held)
	}
	return held
}

// String summarizes the system state for debugging.
func (s *System) String() string {
	return fmt.Sprintf("system{n=%d %v round=%d active=%d viewers=%d}",
		s.n, s.cat, s.round, s.matcher.ActiveCount(), s.tracker.TotalViewers())
}
