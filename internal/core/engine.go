package core

import (
	"fmt"
	"slices"

	"repro/internal/bipartite"
	"repro/internal/video"
)

// StepResult reports what happened during one round.
type StepResult struct {
	Round         int
	Demanded      int
	Admitted      int
	RejectedBusy  int
	RejectedSwarm int
	Matched       int
	Unmatched     int
	Obstruction   *Obstruction // nil when all requests were served
}

// Step simulates one round: expiry, scheduled request issuance, demand
// admission, connection matching, obstruction handling, and progress.
//
// The generator's batch is checked whole before any of it is admitted. If
// a demand names a box or video the system does not have, or was born in a
// round that has not come yet, none of the batch is admitted, the round
// otherwise runs to its end — the system stays consistent and can be
// stepped again — and Step returns the round's result with an error naming
// the first such demand.
//
// Under Config.Paranoid the matching is verified mid-round and the whole
// state is audited (see audit) after it, a round whose batch was refused
// included.
func (s *System) Step(gen Generator) (StepResult, error) {
	res, batchErr, err := s.step(gen)
	if err != nil {
		return res, err
	}
	if s.cfg.Paranoid {
		if aerr := s.audit(); aerr != nil {
			return res, fmt.Errorf("core: round %d state corrupt: %w", s.round, aerr)
		}
	}
	return res, batchErr
}

// step runs one round. batchErr refuses the generator's batch (the round
// still ran); err ends the round where it stands: the system had already
// failed, or a Paranoid check found the matching corrupt.
func (s *System) step(gen Generator) (res StepResult, batchErr, err error) {
	if s.failed {
		return res, nil, fmt.Errorf("core: system already failed at round %d", s.metrics.failRound)
	}
	s.round++
	res.Round = s.round
	s.tracker.BeginRound(s.round)
	s.avail.expire(s.round)

	s.retireDue()

	// Issue scheduled requests due this round. Strategies never schedule
	// into the current round's bucket (delay ≥ 1), so draining it before
	// admission is safe.
	bucket := s.round % len(s.pendingRing)
	due := s.pendingRing[bucket]
	s.pendingRing[bucket] = emptied(due, s.matcher.ActiveCount(), s.cat.T)
	ahead := int32(0)
	for _, iss := range due {
		ahead += s.readAhead(iss.stripe)
	}
	s.ahead = ahead
	for _, iss := range due {
		s.issueRequest(iss.stripe, iss.requester, iss.viewer)
	}

	// Admission.
	if gen != nil {
		batch := gen.Next(s.View(), s.round)
		if batchErr = s.checkDemands(batch); batchErr != nil {
			batch = nil
		}
		for _, d := range batch {
			res.Demanded++
			switch s.admit(d) {
			case admitOK:
				res.Admitted++
			case admitBusy:
				res.RejectedBusy++
				s.metrics.rejectedBusy++
			case admitSwarmFull:
				res.RejectedSwarm++
				s.metrics.rejectedSwarm++
			}
		}
	}
	s.metrics.demands += int64(res.Demanded)
	s.metrics.admitted += int64(res.Admitted)

	// Connection matching (Lemma 1). Invalidation repairs only the
	// assignments that freeze/expiry events or due margin rechecks have
	// flagged; the full sweep runs while a stall episode keeps
	// certificates unreliable (see invalidation.go).
	adj := s.adj
	if s.needSweep {
		s.discardInvalidationBacklog()
		s.matcher.Revalidate(adj)
	} else {
		s.invalidateTargeted(adj)
	}
	unmatched := s.matcher.AugmentAll(adj)
	res.Matched = s.matcher.MatchedCount()
	res.Unmatched = len(unmatched)
	stalled := unmatched

	if len(unmatched) > 0 {
		res.Obstruction = s.recordObstruction(adj)
		if s.cfg.Failure == FailStop {
			s.failed = true
			s.metrics.failRound = s.round
			return res, batchErr, nil
		}
		s.metrics.stalls += int64(len(unmatched))
		// Rewrite the deficient maximum matching to the canonical covered
		// set (unique fixpoint, see bipartite.CanonicalizeDeficit): which
		// requests stall then depends on the graph alone, not on which
		// maximum matching the augmenter happened to find, so whole
		// FailStall trajectories — not just per-round counts — do not
		// depend on the augmenter's search order.
		stalled = s.matcher.CanonicalizeDeficit(adj, unmatched)
	}

	// Verify while edges still reflect matching-time possession; the
	// progress update below legitimately stales edges for the next round
	// (Revalidate repairs them at the top of the next Step).
	if s.cfg.Paranoid {
		if err := s.matcher.Verify(adj); err != nil {
			return res, batchErr, fmt.Errorf("core: round %d matcher corrupt: %w", s.round, err)
		}
		// The advance below trusts the stall list to name every unmatched
		// request: one missing from it would advance silently.
		if want := s.matcher.ActiveCount() - s.matcher.MatchedCount(); len(stalled) != want {
			return res, batchErr, fmt.Errorf("core: round %d stall list names %d requests, %d are unmatched",
				s.round, len(stalled), want)
		}
	}

	// Matched requests advance one chunk with the clock; stalled ones keep
	// their progress by moving their base along. Then certificates refresh.
	s.clock++
	for _, l := range stalled {
		s.reqBase[l]++
	}
	s.refreshAssignmentCertificates(res.Unmatched)

	s.metrics.observeRound(s, res)
	return res, batchErr, nil
}

// retireDue retires the requests whose progress reaches T at this clock:
// the slots of its retire bucket, less those that stalled since they were
// filed, which move to the bucket of their new due clock (a base only
// grows, so a lazy move is never late). The due slots retire in the order
// a scan of the live list would retire them: by position, and at each
// position again while the slot retireRequest swapped in from the tail is
// due too. That keeps freeSlots and the live list's order — and so every
// later round — what a scan makes them.
func (s *System) retireDue() {
	T := int32(s.cat.T)
	b := int(s.clock) % len(s.retireRing)
	bucket := s.retireRing[b]
	keys := s.retireScratch[:0]
	for _, slot := range bucket {
		if s.reqBase[slot]+T != s.clock {
			s.bucketRetire(slot)
			continue
		}
		keys = append(keys, uint64(s.matcher.ActivePos(int(slot)))<<32|uint64(slot))
	}
	s.retireRing[b] = emptied(bucket, s.matcher.ActiveCount(), s.cat.T)
	slices.Sort(keys)
	ahead := int32(0)
	for _, k := range keys { // read a batch ahead (see readAhead)
		ahead += s.matcher.Touch(int(uint32(k)))
	}
	s.ahead = ahead
	for _, k := range keys {
		slot := int32(uint32(k))
		if !s.matcher.Active(int(slot)) {
			continue // an earlier position's chain retired it
		}
		pos := s.matcher.ActivePos(int(slot))
		s.retireRequest(slot)
		for pos < s.matcher.ActiveCount() && s.reqBase[s.matcher.ActiveLefts()[pos]]+T == s.clock {
			s.retireRequest(s.matcher.ActiveLefts()[pos])
		}
	}
	s.retireScratch = keys
}

// readAhead returns a word of the record phase 0 first probes for a
// request of stripe st: its first holder's right.
//
// This is the batch-ahead pattern of the bookkeeping passes. A pass that
// writes or probes records at random positions in population-sized
// arrays one element at a time stalls on each element's chain of
// dependent cache misses, so it first reads the batch it holds in a loop
// of its own, whose reads are independent and whose misses overlap
// (stats.ShuffleSlice takes its draws a batch ahead the same way). Go has
// no prefetch instruction and drops a load whose value is unused, so each
// such loop sums its words into s.ahead.
func (s *System) readAhead(st video.StripeID) int32 {
	if h := s.cfg.Alloc.Holders(st); len(h) > 0 {
		return int32(s.matcher.Load(int(h[0])))
	}
	return 0
}

// checkDemands reports the first demand of batch that names a box or a
// video outside the system, or a birth round after this one (its start-up
// delay would fall below the strategy's minimum).
func (s *System) checkDemands(batch []Demand) error {
	for i, d := range batch {
		if d.Box < 0 || d.Box >= s.n {
			return fmt.Errorf("core: round %d: demand %d of %d names box %d, the system has boxes 0..%d",
				s.round, i, len(batch), d.Box, s.n-1)
		}
		if d.Video < 0 || int(d.Video) >= s.cat.M {
			return fmt.Errorf("core: round %d: demand %d of %d (box %d) names video %d, the catalog has videos 0..%d",
				s.round, i, len(batch), d.Box, d.Video, s.cat.M-1)
		}
		if d.Born > s.round {
			return fmt.Errorf("core: round %d: demand %d of %d (box %d) names birth round %d, a demand is born in rounds 1..%d",
				s.round, i, len(batch), d.Box, d.Born, s.round)
		}
	}
	return nil
}

type admitCode int

const (
	admitOK admitCode = iota
	admitBusy
	admitSwarmFull
)

// admit processes one demand: swarm-growth admission control, round-robin
// preload stripe selection, and strategy-specific request scheduling. The
// demand's box and video are in range (checkDemands).
func (s *System) admit(d Demand) admitCode {
	if s.boxes[d.Box].busy() {
		return admitBusy
	}
	if s.tracker.Allowance(d.Video) <= 0 {
		return admitSwarmFull
	}
	preloadIdx, err := s.tracker.Enter(d.Video, s.cat.C)
	if err != nil {
		return admitSwarmFull
	}

	born := d.Born
	if born <= 0 {
		born = s.round
	}
	b := int32(d.Box)
	var planned int
	switch s.cfg.Strategy {
	case StrategyPreload:
		planned = s.planHomogeneous(b, d.Video, preloadIdx, 1)
		s.metrics.recordStartup(s.round - born + 3)
	case StrategyNaive:
		planned = s.planHomogeneous(b, d.Video, preloadIdx, 0)
		s.metrics.recordStartup(s.round - born + 2)
	case StrategyRelayed:
		if s.cfg.Uploads[d.Box] < s.cfg.UStar {
			planned = s.planRelayedPoor(b, d.Video, preloadIdx)
			s.metrics.recordStartup(s.round - born + 6)
		} else {
			planned = s.planRelayedRich(b, d.Video, preloadIdx)
			s.metrics.recordStartup(s.round - born + 4)
		}
	}

	s.boxes[d.Box].outstanding = int32(planned)
	if planned > 0 {
		s.markBusy(b)
	} else {
		// Everything available locally: an instant viewing.
		s.metrics.completedViewings++
	}
	return admitOK
}

// planHomogeneous issues the preload stripe now and the rest after
// postponeDelay rounds (Section 3; delay 0 is the naive ablation).
// It returns the number of requests planned.
func (s *System) planHomogeneous(b int32, v video.ID, preloadIdx, postponeDelay int) int {
	local := s.selfPossesses(b, v)
	planned := 0
	for i := 0; i < s.cat.C; i++ {
		st := s.cat.Stripe(v, i)
		if local[i] {
			s.metrics.skippedSelf++
			continue
		}
		planned++
		if i == preloadIdx {
			s.metrics.preloadReqs++
		} else {
			s.metrics.postponedReqs++
		}
		if i == preloadIdx || postponeDelay == 0 {
			s.issueRequest(st, b, b)
		} else {
			s.schedule(postponeDelay, issuance{stripe: st, requester: b, viewer: b})
		}
	}
	return planned
}

// planRelayedRich is the Section 4 strategy for a rich box's own demand:
// preload now, postponed requests at t+2 (doubled time scale).
func (s *System) planRelayedRich(b int32, v video.ID, preloadIdx int) int {
	local := s.selfPossesses(b, v)
	planned := 0
	for i := 0; i < s.cat.C; i++ {
		st := s.cat.Stripe(v, i)
		if local[i] {
			s.metrics.skippedSelf++
			continue
		}
		planned++
		if i == preloadIdx {
			s.metrics.preloadReqs++
			s.issueRequest(st, b, b)
		} else {
			s.metrics.postponedReqs++
			s.schedule(2, issuance{stripe: st, requester: b, viewer: b})
		}
	}
	return planned
}

// planRelayedPoor is the Section 4 strategy for a poor box b: the relay
// issues the preload request at t and forwards (mirror lag 1); b issues
// c_b direct postponed requests at t+2; the relay issues the remaining
// postponed requests at t+3 and forwards those too.
func (s *System) planRelayedPoor(b int32, v video.ID, preloadIdx int) int {
	r := int32(s.cfg.Relays[b])
	cb := directStripeCount(s.cfg.Uploads[b], s.cat.C, s.cfg.Mu)
	local := s.selfPossesses(b, v)
	planned := 0
	direct := 0
	for i := 0; i < s.cat.C; i++ {
		st := s.cat.Stripe(v, i)
		if local[i] {
			s.metrics.skippedSelf++
			continue // viewer plays it locally
		}
		if i == preloadIdx {
			if s.cfg.Alloc.Stores(int(r), st) {
				s.metrics.skippedSelf++
				continue // relay forwards from its own storage: no request
			}
			planned++
			s.metrics.preloadReqs++
			s.metrics.relayedReqs++
			s.issueRequest(st, r, b)
			continue
		}
		if direct < cb {
			direct++
			planned++
			s.metrics.postponedReqs++
			s.schedule(2, issuance{stripe: st, requester: b, viewer: b})
			continue
		}
		if s.cfg.Alloc.Stores(int(r), st) {
			s.metrics.skippedSelf++
			continue // relay forwards from its own storage
		}
		planned++
		s.metrics.relayedReqs++
		s.schedule(3, issuance{stripe: st, requester: r, viewer: b})
	}
	return planned
}

// recordObstruction extracts and records the Hall-violator certificate.
// The alternating-reachable region is invariant across maximum matchings
// (Dulmage–Mendelsohn), so the certificate does not depend on which one
// the augmenter found.
func (s *System) recordObstruction(adj bipartite.Adjacency) *Obstruction {
	v := s.matcher.HallViolator(adj)
	if v == nil {
		return nil
	}
	stripes := s.stripeScratch[:0]
	for _, l := range v.Lefts {
		stripes = append(stripes, s.reqStripe[l])
	}
	slices.Sort(stripes)
	s.stripeScratch = stripes
	ob := &Obstruction{
		Round:           s.round,
		Requests:        len(v.Lefts),
		DistinctStripes: len(slices.Compact(stripes)),
		Boxes:           len(v.Rights),
		Slots:           v.Slots,
	}
	s.metrics.obstructions = append(s.metrics.obstructions, *ob)
	return ob
}

// Run simulates rounds rounds (or until a FailStop obstruction) and
// returns the aggregate report.
func (s *System) Run(gen Generator, rounds int) (Report, error) {
	for i := 0; i < rounds && !s.failed; i++ {
		if _, err := s.Step(gen); err != nil {
			return s.Report(), err
		}
	}
	return s.Report(), nil
}
