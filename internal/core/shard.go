package core

// Sharded round engine (Config.Shards > 1).
//
// Stripes are partitioned statically across shards (stripe mod Shards), so
// requests — whose edges only ever reach boxes possessing their stripe —
// partition with them. Each shard owns a bipartite sub-matcher in a
// shard-local right-id space (see bipartite.Sharded) plus the lane state
// below: its slice of the recheck ring, event scratch, and an adjacency
// that translates the Section 2.2 graph into local ids. The hot stages of
// a round (expiry, targeted invalidation, certificate rechecks, blocking-
// flow augmentation, progress) are fused into two dispatches onto a
// persistent per-shard worker pool (shardPool) with no shared mutable
// state; box capacity — the one cross-shard resource — is resolved
// between them by the deterministic Merge + GlobalAugment serial tail, so
// StepResult is bit-identical at every shard count and independent of
// GOMAXPROCS (see the sharded-vs-serial lockstep differential).

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bipartite"
	"repro/internal/video"
)

// lane is one shard's private engine state.
type lane struct {
	id  int
	sys *System
	adj bipartite.Hinted // shardAdjacency{ln}; a field for the same reason as System.adj

	// Per-shard half of the event-driven invalidation state; exactly the
	// serial engine's recheckRing/availEvents/assignedLog/candScratch,
	// restricted to the lane's stripes (see invalidation.go).
	recheckRing [][]int32
	availEvents []availEvent
	assignedLog []int32
	candScratch []int32

	// fnStack supports the visitLocal trampoline: the matcher's DFS
	// re-enters VisitServers from inside callbacks, so the active callback
	// is a stack, not a slot. tramp is allocated once to keep the hot
	// visit path free of per-call closures.
	fnStack []func(right int) bool
	tramp   func(box int, local int32) bool
}

func (ln *lane) init(s *System, id int) {
	ln.id = id
	ln.sys = s
	ln.adj = shardAdjacency{ln}
	ln.tramp = func(box int, local int32) bool {
		if local < 0 {
			local = int32(ln.sys.sharded.Register(ln.id, box))
		}
		return ln.fnStack[len(ln.fnStack)-1](int(local))
	}
}

// preRegisterShardRights materializes every sub-matcher right the
// allocation can ever need: stripe st's holders are exactly the boxes
// st's requests can reach, so registering each holder with st's shard at
// construction covers every future Register call. Without this, rights
// grow lazily at first touch — and a fresh-video churn workload touches
// new (shard, box) pairs every round, costing ~2MB/round in right-record
// and capacity-view growth on the sharded engine (measured by
// BenchmarkStepShardScaling). Registration order only renames shard-local
// right ids; results are unchanged (Config.LazyShardRights restores the
// lazy path for populations too large to pre-register).
func (s *System) preRegisterShardRights() {
	for st, holders := range s.cfg.Alloc.ByStripe {
		sh := s.shardOf(video.StripeID(st))
		for _, b := range holders {
			s.sharded.Register(sh, int(b))
		}
	}
}

// shardAdjacency presents the Section 2.2 graph to one shard's sub-matcher
// in the shard's local right-id space. Only lefts owned by the shard ever
// reach it, so every translation stays within the lane.
type shardAdjacency struct{ ln *lane }

// VisitServers mirrors adjacency.VisitServers, emitting local right ids:
// allocation holders translated through the shard's flat global→local
// table (one array load each; Register materializes the right on first
// touch — safe in the lane's own stage since only the owning shard
// mutates its tables), then swarm predecessors via the store's
// visitLocal (whose cached boxLocal makes the common case a straight
// array read; -1 falls back to registration).
func (a shardAdjacency) VisitServers(left int, fn func(right int) bool) {
	ln := a.ln
	s := ln.sys
	slot := int32(left)
	stripe := s.reqStripe[slot]
	requester := s.reqBox[slot]
	for _, b := range s.cfg.Alloc.ByStripe[stripe] {
		if b != requester {
			if !fn(s.sharded.Register(ln.id, int(b))) {
				return
			}
		}
	}
	if s.cfg.DisableCacheServing {
		return
	}
	ln.fnStack = append(ln.fnStack, fn)
	s.avail.visitLocal(stripe, requester, s.reqProgress[slot], s.reqProgress, ln.tramp)
	ln.fnStack = ln.fnStack[:len(ln.fnStack)-1]
}

// BeginServers implements bipartite.CursorAdjacency for the lane: the
// sub-matcher's hot path, bypassing the fnStack/tramp machinery entirely
// (that pair stays for the VisitServers adapter form). Same staging as
// adjacency's cursor, with every yielded right translated to the shard's
// local id space; Register on first touch is safe here for the same
// reason as in VisitServers — only the owning shard mutates its tables.
func (a shardAdjacency) BeginServers(left int, c *bipartite.Cursor) {
	c.Left = int32(left)
	c.Stage = 0
	c.Index = 0
}

// NextServer implements bipartite.CursorAdjacency on local right ids.
func (a shardAdjacency) NextServer(c *bipartite.Cursor) int {
	ln := a.ln
	s := ln.sys
	slot := c.Left
	stripe := s.reqStripe[slot]
	requester := s.reqBox[slot]
	if c.Stage == 0 {
		holders := s.cfg.Alloc.ByStripe[stripe]
		for int(c.Index) < len(holders) {
			b := holders[c.Index]
			c.Index++
			if b != requester {
				return s.sharded.Register(ln.id, int(b))
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
		box, local, next := s.avail.visitStep(stripe, c.ID, requester, s.reqProgress[slot], s.reqProgress)
		c.ID = next
		if box >= 0 {
			if local < 0 {
				return s.sharded.Register(ln.id, int(box))
			}
			return int(local)
		}
		c.Stage = 2
	}
	return -1
}

// CanServe translates the local right back to its box and defers to the
// global adjacency.
func (a shardAdjacency) CanServe(left, right int) bool {
	s := a.ln.sys
	return adjacency{s}.CanServe(left, s.sharded.Global(a.ln.id, right))
}

// ServerCountHint implements bipartite.Hinted (global information only).
func (a shardAdjacency) ServerCountHint(left int) int {
	return adjacency{a.ln.sys}.ServerCountHint(left)
}

// StableEdge implements bipartite.Hinted on local right ids.
func (a shardAdjacency) StableEdge(left, right int) bool {
	s := a.ln.sys
	return adjacency{s}.StableEdge(left, s.sharded.Global(a.ln.id, right))
}

// ServerClass implements bipartite.Hinted on local right ids. A requester
// the shard has not registered has no local id to exclude — and a walk
// could still register and reach it — so such a request reports no class.
func (a shardAdjacency) ServerClass(left int) (class, need int32, self int) {
	s := a.ln.sys
	class, need, box := adjacency{s}.ServerClass(left)
	if self = s.sharded.Local(a.ln.id, box); self < 0 {
		return -1, 0, -1
	}
	return class, need, self
}

// shardStage identifies the fused shard-local work a pool dispatch runs.
// A round has exactly two dispatches — the only synchronization points
// left are the barriers around the serial Merge/GlobalAugment tail.
type shardStage uint8

const (
	// stageMatch fuses every pre-merge shard-local phase: availability
	// expiry, capacity-view refresh, targeted invalidation (or sweep
	// revalidation), and blocking-flow augmentation over the sub-graph.
	stageMatch shardStage = iota
	// stageAdvance fuses the post-merge phases: progress advance, then
	// certificate refresh under the serially decided certMode (progress
	// first — certificate margins read reqProgress, and the serial engine
	// advances before it certifies).
	stageAdvance
)

// shardPool parks numShards-1 persistent workers on an allocation-free
// reusable barrier; shard 0 always runs inline on the dispatching
// goroutine, so shards=1 degenerates to the serial engine's cost and a
// dispatch costs one channel send per worker plus one WaitGroup cycle —
// no goroutine spawns, no per-round allocation. The System reference is
// published per dispatch and cleared after the barrier, so parked workers
// never pin the engine: an abandoned (un-Closed) System stays collectable
// and its runtime.AddCleanup closes the pool as a safety net.
type shardPool struct {
	wake   []chan struct{} // one buffered wake token slot per worker; worker i owns shard i+1
	done   sync.WaitGroup  // reusable barrier: Add(workers) per dispatch, Done per shard
	runner *System         // published before release, nil while parked
	stage  shardStage
	closed atomic.Bool
	once   sync.Once
}

func newShardPool(workers int) *shardPool {
	p := &shardPool{wake: make([]chan struct{}, workers)}
	for i := range p.wake {
		ch := make(chan struct{}, 1)
		p.wake[i] = ch
		go p.work(i+1, ch)
	}
	return p
}

// work is one parked worker: each wake token runs the published stage for
// the worker's shard and reports through the barrier. The channel send in
// run happens-before the receive here, and the Done happens-before run's
// Wait, so runner/stage publication needs no further synchronization.
func (p *shardPool) work(sh int, wake chan struct{}) {
	for range wake {
		p.runner.runShardStage(p.stage, sh)
		p.done.Done()
	}
}

// run executes stage on every shard — workers for shards 1..S-1, the
// calling goroutine for shard 0 — and returns once all have finished.
func (p *shardPool) run(s *System, stage shardStage) {
	p.runner, p.stage = s, stage
	p.done.Add(len(p.wake))
	for _, ch := range p.wake {
		ch <- struct{}{}
	}
	s.runShardStage(stage, 0)
	p.done.Wait()
	p.runner = nil
}

// close releases the workers. Idempotent; must not race a Step (the
// System serializes Step and Close onto its single-writer contract, and
// the AddCleanup path only fires once no Step can be running).
func (p *shardPool) close() {
	p.once.Do(func() {
		p.closed.Store(true)
		for _, ch := range p.wake {
			close(ch)
		}
	})
}

// runShardStage dispatches one shard's share of a fused stage. It is the
// single entry point for both the inline shard-0 call and the pool
// workers.
func (s *System) runShardStage(stage shardStage, sh int) {
	switch stage {
	case stageMatch:
		s.matchStageShard(sh)
	case stageAdvance:
		s.advanceStageShard(sh)
	}
}

// matchStageShard is the fused pre-merge stage for one lane: expire the
// lane's availability window, refresh its capacity views, repair flagged
// assignments (or sweep), and augment over the sub-graph. Expiry is
// deferred here from the top of the round — admission has already run —
// which is safe because selfPossesses window-filters the entries this
// expiry is about to drop (see availabilityStore.hasFull) and every other
// consumer of the store runs at or after this stage.
func (s *System) matchStageShard(sh int) {
	ln := &s.lanes[sh]
	s.avail.expireShard(s.round, sh)
	s.sharded.RefreshCapacities(sh)
	adj := ln.adj
	if s.eventDriven && !s.needSweep {
		s.invalidateTargetedShard(ln, adj)
	} else {
		if s.eventDriven {
			s.discardInvalidationBacklogShard(ln)
		}
		s.sharded.Sub(sh).Revalidate(adj)
	}
	s.shardUnmatched[sh] = s.sharded.Sub(sh).AugmentAll(adj)
}

// matchSharded runs the round's matching stages on the sharded engine:
// one pooled dispatch runs the fused pre-merge stage on every shard; then
// the serial tail merges per-shard loads in fixed shard order, evicts
// oversubscribed claims deterministically, and completes the matching to
// a global maximum with cross-shard alternating paths. Returns the final
// unmatched lefts (ascending).
func (s *System) matchSharded() []int {
	t := nowNS()
	s.pool.run(s, stageMatch)
	s.timing.parallelNS = nowNS() - t
	t = nowNS()
	spill := s.sharded.Merge()
	out := s.sharded.GlobalAugment(s.adj, spill, s.shardUnmatched)
	s.timing.serialNS = nowNS() - t
	return out
}

// invalidateTargetedShard is invalidateTargeted restricted to one lane:
// same candidate gathering (due rechecks + the lane's freeze/expiry
// events), same batch invalidation, same certificate re-derivation — over
// the lane's sub-matcher and ring. The union over lanes covers exactly
// the candidates the serial engine gathers.
func (s *System) invalidateTargetedShard(ln *lane, adj bipartite.Adjacency) {
	bucket := s.round % len(ln.recheckRing)
	due := ln.recheckRing[bucket]
	ln.recheckRing[bucket] = due[:0]
	cand := append(ln.candScratch[:0], due...)
	ln.availEvents = s.avail.drainEventsShard(ln.id, ln.availEvents[:0])
	sub := s.sharded.Sub(ln.id)
	for _, ev := range ln.availEvents {
		lr := s.sharded.Local(ln.id, int(ev.box))
		if lr < 0 {
			continue
		}
		for _, l := range sub.AssignedLefts(lr) {
			if s.reqStripe[l] == ev.stripe {
				cand = append(cand, l)
			}
		}
	}
	sub.InvalidateBatch(adj, cand)
	prev := int32(-1)
	for _, l := range cand { // sorted and deduped by InvalidateBatch's ordering
		if l == prev {
			continue
		}
		prev = l
		s.scheduleCertificateShard(ln, int(l))
	}
	ln.candScratch = cand
}

// scheduleCertificateShard mirrors scheduleCertificate on a lane's ring.
// Safe in the lane's parallel stage: it reads the store's same-stripe
// index (owned by this shard, quiescent during the stage) and writes only
// the lane's ring.
func (s *System) scheduleCertificateShard(ln *lane, l int) {
	lr := s.sharded.Sub(ln.id).Server(l)
	if lr < 0 {
		return
	}
	r := s.sharded.Global(ln.id, lr)
	slot := int32(l)
	st := s.reqStripe[slot]
	if s.cfg.Alloc.Stores(r, st) {
		return
	}
	need := s.reqProgress[slot]
	hasLive, bestFrozen, ok := s.avail.margin(st, int32(r), need, s.reqProgress)
	switch {
	case !ok:
		s.scheduleRecheckShard(ln, slot, 1)
	case hasLive:
		// Live margin: nothing to watch until an event fires.
	default:
		s.scheduleRecheckShard(ln, slot, int(bestFrozen-need))
	}
}

// scheduleRecheckShard is scheduleRecheck on a lane's ring.
func (s *System) scheduleRecheckShard(ln *lane, l int32, delta int) {
	bucket := (s.round + delta) % len(ln.recheckRing)
	ln.recheckRing[bucket] = append(ln.recheckRing[bucket], l)
}

// discardInvalidationBacklogShard is discardInvalidationBacklog for one
// lane (a sweep round supersedes the lane's targeted work).
func (s *System) discardInvalidationBacklogShard(ln *lane) {
	bucket := s.round % len(ln.recheckRing)
	ln.recheckRing[bucket] = ln.recheckRing[bucket][:0]
	ln.availEvents = s.avail.drainEventsShard(ln.id, ln.availEvents[:0])
}

// certMode is the serially decided disposition of a round's assignment
// logs (see refreshAssignmentCertificates for the episode logic).
type certMode int

const (
	certsDiscard     certMode = iota // stall round: drain logs, keep sweeping
	certsRebuild                     // first clean round after stalls: rebuild all
	certsIncremental                 // steady state: certify new assignments only
)

// advanceAndCertifySharded is the post-merge half of the sharded round:
// the sweep-episode transition is decided serially (it reads the global
// unmatched count and flips needSweep), then one pooled dispatch runs the
// fused progress+certificate stage on every lane.
func (s *System) advanceAndCertifySharded(unmatched int) {
	if s.eventDriven {
		s.certMode = certsIncremental
		if unmatched > 0 {
			s.needSweep = true
			s.certMode = certsDiscard
		} else if s.needSweep {
			s.needSweep = false
			s.certMode = certsRebuild
		}
	}
	t := nowNS()
	s.pool.run(s, stageAdvance)
	s.timing.parallelNS += nowNS() - t
}

// advanceStageShard is the fused post-merge stage for one lane: advance
// matched requests one chunk (reqProgress writes confined to the owning
// shard), then drain the lane's assignment log and re-derive certificates
// under the serially decided certMode. Progress runs first because
// certificate margins read reqProgress — the same order as the serial
// engine's Step.
func (s *System) advanceStageShard(sh int) {
	ln := &s.lanes[sh]
	sub := s.sharded.Sub(sh)
	for _, l := range sub.ActiveLefts() {
		if sub.Server(int(l)) != bipartite.Unassigned {
			s.reqProgress[l]++
		}
	}
	if !s.eventDriven {
		return
	}
	ln.assignedLog = sub.DrainAssigned(ln.assignedLog[:0])
	switch s.certMode {
	case certsRebuild:
		for _, l := range sub.ActiveLefts() {
			s.scheduleCertificateShard(ln, int(l))
		}
	case certsIncremental:
		for _, l := range ln.assignedLog {
			s.scheduleCertificateShard(ln, int(l))
		}
	}
}

// verifyMatching is the paranoid-mode check: per-shard sub-matcher
// consistency against the lane adjacency, then the global load table
// against true capacities.
func (s *System) verifyMatching(adj bipartite.Adjacency) error {
	if s.sharded == nil {
		return s.matcher.Verify(adj)
	}
	for sh := 0; sh < s.numShards; sh++ {
		if err := s.sharded.Sub(sh).Verify(s.lanes[sh].adj); err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	return s.sharded.VerifyLoads()
}
