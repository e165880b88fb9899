package core

// Event-driven matcher invalidation.
//
// The Revalidate sweep re-probes every assigned request each round even
// when nothing under it changed. But an assignment l→r can only lose its
// edge through three mechanisms, all of them observable:
//
//  1. a cache entry of (stripe(l), r) expires — the store logs an event;
//  2. a cache entry of (stripe(l), r) freezes (its backing request
//     retired) — the store logs an event, and from then on the frozen
//     copy stops growing while l keeps progressing, so the edge dies
//     after exactly bestFrozen−progress(l) more matched rounds — a
//     deadline this file tracks on a recheck ring;
//  3. a *live* entry stops advancing because its backing request
//     stalled — only possible in rounds with unmatched requests
//     (FailStall), after which the engine falls back to full sweeps
//     until a fully matched round lets it rebuild all certificates.
//
// Allocation-backed (stable) edges never decay and carry no certificate.
// The result is a fully output-sensitive invalidation phase: per-round
// cost tracks freeze/expiry volume and due rechecks, not the active set.
// The differential tests pin it to the Revalidate sweep, which they force
// every round by setting needSweep.

import "repro/internal/bipartite"

// invalidateTargeted replaces the Revalidate sweep: it gathers the
// candidate assignments flagged by margin rechecks due this round and by
// the (stripe, box) freeze/expiry events the availability store recorded
// during this round's expire/retire phase, then batch-invalidates them.
// The batch runs in active-list order, which keeps the matcher's
// evolution bit-identical to the sweep's (see InvalidateBatch); each
// event contributes O(load(box)) candidates, bounded by slot capacity.
func (s *System) invalidateTargeted(adj bipartite.Adjacency) {
	bucket := s.round % len(s.recheckRing)
	due := s.recheckRing[bucket]
	s.recheckRing[bucket] = due[:0]
	cand := append(s.candScratch[:0], due...)
	for _, ev := range s.avail.takeEvents() {
		for _, l := range s.matcher.AssignedLefts(int(ev.box)) {
			if s.reqStripe[l] == ev.stripe {
				cand = append(cand, l)
			}
		}
	}
	s.matcher.InvalidateBatch(adj, cand)
	// Survivors were touched by an event or due for a recheck: re-derive
	// their certificates (dropped or stale lefts no-op inside).
	prev := int32(-1)
	for _, l := range cand { // sorted and deduped by InvalidateBatch's ordering
		if l == prev {
			continue
		}
		prev = l
		s.scheduleCertificate(int(l))
	}
	s.candScratch = cand
}

// scheduleCertificate installs l's invalidation certificate — the round
// by which its current assignment could first lose its edge:
//
//   - allocation-backed edges are stable, no certificate;
//   - edges with a live serving entry decay only through freeze/expiry
//     events, which trigger targeted invalidation directly;
//   - frozen-only edges are overtaken when the requester's progress
//     reaches the best frozen progress, at least bestFrozen−need rounds
//     away (progress grows by at most one per round), so a recheck then
//     catches the death in the same round the sweep would.
func (s *System) scheduleCertificate(l int) {
	r := s.matcher.Server(l)
	if r < 0 {
		return
	}
	slot := int32(l)
	st := s.reqStripe[slot]
	if s.cfg.Alloc.Stores(r, st) {
		return
	}
	pv := s.progress()
	need := pv.of(slot)
	hasLive, bestFrozen, ok := s.avail.margin(st, int32(r), need, pv)
	switch {
	case !ok:
		// Already overtaken (the post-matching progress update legitimately
		// stales edges): drop it next round, exactly when a sweep would.
		s.scheduleRecheck(slot, 1)
	case hasLive:
		// Live margin: nothing to watch until an event fires.
	default:
		s.scheduleRecheck(slot, int(bestFrozen-need))
	}
}

// scheduleRecheck queues a margin recheck delta ≥ 1 rounds ahead. The
// ring has T+2 buckets and deltas never exceed T (frozen progress ≤ T),
// so a bucket is always drained before it can be reused.
func (s *System) scheduleRecheck(l int32, delta int) {
	bucket := (s.round + delta) % len(s.recheckRing)
	s.recheckRing[bucket] = append(s.recheckRing[bucket], l)
}

// refreshAssignmentCertificates runs after the progress update: it drains
// the matcher's assignment log and installs certificates for this round's
// new assignments. Rounds with unmatched requests (FailStall) leave live
// margins unreliable — stalled backing requests stop advancing while
// their downstream requesters may not — so the engine sweeps until the
// first fully matched round, then rebuilds every certificate at once.
func (s *System) refreshAssignmentCertificates(unmatched int) {
	s.assignedLog = s.matcher.DrainAssigned(s.assignedLog[:0])
	if unmatched > 0 {
		s.needSweep = true
		return
	}
	if s.needSweep {
		s.needSweep = false
		for _, slot := range s.matcher.ActiveLefts() {
			s.scheduleCertificate(int(slot))
		}
		return
	}
	for _, l := range s.assignedLog {
		s.scheduleCertificate(int(l))
	}
}

// discardInvalidationBacklog clears this round's recheck bucket and the
// store's event log without acting on them: the full Revalidate sweep
// running this round supersedes the targeted work, and certificates are
// rebuilt wholesale when the sweep episode ends.
func (s *System) discardInvalidationBacklog() {
	bucket := s.round % len(s.recheckRing)
	s.recheckRing[bucket] = s.recheckRing[bucket][:0]
	s.avail.takeEvents()
}
