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
func (s *System) Step(gen Generator) (StepResult, error) {
	if s.failed {
		return StepResult{}, fmt.Errorf("core: system already failed at round %d", s.metrics.failRound)
	}
	s.round++
	res := StepResult{Round: s.round}
	s.tracker.BeginRound(s.round)
	s.avail.expire(s.round)

	// Retire completed requests (progress reached T). retireRequest
	// swap-removes the current slot, so only advance on survivors.
	for i := 0; i < len(s.activeList); {
		slot := s.activeList[i]
		if s.reqProgress[slot] >= int32(s.cat.T) {
			s.retireRequest(slot)
		} else {
			i++
		}
	}

	// Issue scheduled requests due this round. Strategies never schedule
	// into the current round's bucket (delay ≥ 1), so draining it before
	// admission is safe.
	bucket := s.round % len(s.pendingRing)
	due := s.pendingRing[bucket]
	s.pendingRing[bucket] = due[:0]
	for _, iss := range due {
		s.issueRequest(iss.stripe, iss.requester, iss.viewer, iss.mirror)
	}

	// Admission.
	var batchErr error
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

	if len(unmatched) > 0 {
		res.Obstruction = s.recordObstruction(adj)
		if s.cfg.Failure == FailStop {
			s.failed = true
			s.metrics.failRound = s.round
			return res, batchErr
		}
		s.metrics.stalls += int64(len(unmatched))
		// Rewrite the deficient maximum matching to the canonical covered
		// set (unique fixpoint, see bipartite.CanonicalizeDeficit): which
		// requests stall then depends on the graph alone, not on which
		// maximum matching the augmenter happened to find, so whole
		// FailStall trajectories — not just per-round counts — do not
		// depend on the augmenter's search order.
		s.matcher.CanonicalizeDeficit(adj, unmatched)
	}

	// Verify while edges still reflect matching-time possession; the
	// progress update below legitimately stales edges for the next round
	// (Revalidate repairs them at the top of the next Step).
	if s.cfg.Paranoid {
		if err := s.matcher.Verify(adj); err != nil {
			return res, fmt.Errorf("core: round %d matcher corrupt: %w", s.round, err)
		}
	}

	// Matched requests advance one chunk, then certificates refresh.
	for _, slot := range s.activeList {
		if s.matcher.Server(int(slot)) != -1 {
			s.reqProgress[slot]++
		}
	}
	s.refreshAssignmentCertificates(res.Unmatched)

	s.metrics.observeRound(s, res)
	return res, batchErr
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
	if box := &s.boxes[d.Box]; box.busy || box.outstanding > 0 {
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
		s.boxes[d.Box].busy = true
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
	planned := 0
	for i := 0; i < s.cat.C; i++ {
		st := s.cat.Stripe(v, i)
		if s.selfPossesses(b, st) {
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
			s.issueRequest(st, b, b, -1)
		} else {
			s.schedule(issuance{
				round: s.round + postponeDelay, stripe: st, requester: b, viewer: b, mirror: -1})
		}
	}
	return planned
}

// planRelayedRich is the Section 4 strategy for a rich box's own demand:
// preload now, postponed requests at t+2 (doubled time scale).
func (s *System) planRelayedRich(b int32, v video.ID, preloadIdx int) int {
	planned := 0
	for i := 0; i < s.cat.C; i++ {
		st := s.cat.Stripe(v, i)
		if s.selfPossesses(b, st) {
			s.metrics.skippedSelf++
			continue
		}
		planned++
		if i == preloadIdx {
			s.metrics.preloadReqs++
			s.issueRequest(st, b, b, -1)
		} else {
			s.metrics.postponedReqs++
			s.schedule(issuance{
				round: s.round + 2, stripe: st, requester: b, viewer: b, mirror: -1})
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
	planned := 0
	direct := 0
	for i := 0; i < s.cat.C; i++ {
		st := s.cat.Stripe(v, i)
		if s.selfPossesses(b, st) {
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
			s.issueRequest(st, r, b, b)
			continue
		}
		if direct < cb {
			direct++
			planned++
			s.metrics.postponedReqs++
			s.schedule(issuance{
				round: s.round + 2, stripe: st, requester: b, viewer: b, mirror: -1})
			continue
		}
		if s.cfg.Alloc.Stores(int(r), st) {
			s.metrics.skippedSelf++
			continue // relay forwards from its own storage
		}
		planned++
		s.metrics.relayedReqs++
		s.schedule(issuance{
			round: s.round + 3, stripe: st, requester: r, viewer: b, mirror: b})
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
