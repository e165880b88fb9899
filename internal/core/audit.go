package core

import "fmt"

// audit checks the invariants each part of the engine trusts of the
// others: a Step indexes arrays by the ids one structure hands another,
// and an outstanding count or idle list that disagrees with the slots
// corrupts admission silently. Restore runs it on every checkpoint it
// restores, and Step after every round under Config.Paranoid. It holds:
//
//   - the swarm tracker is at the round; the live list (the matcher's
//     active lefts) and freeSlots partition the slot ids;
//   - each live slot's stripe, box and viewer are in range, and it has
//     start ≤ round and base ≥ start;
//   - each pending issuance is due within the horizon (the bucket of the
//     round itself stands for a round a whole ring ahead) and names a
//     stripe and boxes in range; outstanding[b] is the live slots plus the
//     pending issuances b views; the idle list is exactly the boxes with
//     nothing outstanding, each at its idlePos; the recheck ring names
//     slot ids;
//   - each assigned live slot can be served by its box, unless the sweep
//     is pending or a recheck is due for the slot next round: an edge that
//     decays otherwise is never repaired;
//   - every cache entry names a box in range and has round−T ≤ start ≤
//     round+1; a request-backed entry names a live slot of its own stripe,
//     was issued at that slot's start and is held by the slot's requester
//     (lag 0) or by its viewer, when that is another box (lag 1); a slot
//     backs at most one entry of each lag, the one its link in the store
//     names, through which retire freezes it.
//
// Some invariants are the decode's own, checked as it reads because it
// builds on them before the audit runs: each live slot's progress (clock −
// base) is in [0, T], the idle list names boxes in range, each pending
// issuance carries the round of its bucket and the mirror its requester
// and viewer imply, and each cache entry names a box in range (the store
// indexes its box chains by it) and has lag 0 or 1, a backing slot, if
// any, among the slot ids, and a frozen progress in [0, T].
func (s *System) audit() error {
	nSlots, n, T, round := len(s.reqStripe), int32(s.n), int32(s.cat.T), int32(s.round)
	if tr := s.tracker.Round(); tr != s.round {
		return fmt.Errorf("the swarm tracker is at round %d, the system at %d", tr, s.round)
	}
	inRange := func(b int32) bool { return b >= 0 && b < n }
	viewing := make([]int32, s.n) // live slots and pending issuances per viewer
	seen := make([]bool, nSlots)
	// The matcher keeps its lefts distinct and inside its left space, which
	// is the slot arrays'.
	for _, slot := range s.matcher.ActiveLefts() {
		seen[slot] = true
		st, start, base := s.reqStripe[slot], s.reqStart[slot], s.reqBase[slot]
		switch {
		case st < 0 || int(st) >= s.cat.NumStripes():
			return fmt.Errorf("live slot %d names stripe %d of %d", slot, st, s.cat.NumStripes())
		case !inRange(s.reqBox[slot]) || !inRange(s.reqViewer[slot]):
			return fmt.Errorf("live slot %d names box %d and viewer %d of %d", slot, s.reqBox[slot], s.reqViewer[slot], n)
		case start > round:
			return fmt.Errorf("live slot %d starts at round %d, after round %d", slot, start, round)
		case base < start:
			return fmt.Errorf("live slot %d started at round %d has base %d at clock %d", slot, start, base, s.clock)
		}
		viewing[s.reqViewer[slot]]++
	}
	for _, slot := range s.freeSlots {
		if slot < 0 || int(slot) >= nSlots || seen[slot] {
			return fmt.Errorf("free list names slot %d of %d, which is live, listed twice or past the slots", slot, nSlots)
		}
		seen[slot] = true
	}
	if live, free := s.matcher.ActiveCount(), len(s.freeSlots); live+free != nSlots {
		return fmt.Errorf("%d slots are neither live nor free (%d live, %d free)", nSlots-live-free, live, free)
	}

	for i, bucket := range s.pendingRing {
		if due := s.pendingRound(i); len(bucket) > 0 && due > s.round+maxIssuanceDelay {
			return fmt.Errorf("pending bucket %d holds an issuance for round %d at round %d", i, due, s.round)
		}
		for _, iss := range bucket {
			if iss.stripe < 0 || int(iss.stripe) >= s.cat.NumStripes() || !inRange(iss.requester) || !inRange(iss.viewer) {
				return fmt.Errorf("pending issuance names stripe %d, requester %d and viewer %d",
					iss.stripe, iss.requester, iss.viewer)
			}
			viewing[iss.viewer]++
		}
	}
	idle := 0
	for b := range s.boxes {
		box := &s.boxes[b]
		if box.outstanding != viewing[b] {
			return fmt.Errorf("box %d has %d outstanding, it views %d requests and issuances", b, box.outstanding, viewing[b])
		}
		if !box.busy() {
			idle++
		}
	}
	for pos, b := range s.idleList {
		if s.boxes[b].busy() || s.boxes[b].idlePos != int32(pos) {
			return fmt.Errorf("idle list position %d holds box %d, which is busy or listed twice", pos, b)
		}
	}
	if idle != len(s.idleList) {
		return fmt.Errorf("%d boxes are idle, the idle list holds %d", idle, len(s.idleList))
	}
	dueNext := s.recheckRing[(s.round+1)%len(s.recheckRing)]
	for _, bucket := range s.recheckRing {
		for _, l := range bucket {
			if l < 0 || int(l) >= nSlots {
				return fmt.Errorf("recheck ring names slot %d of %d", l, nSlots)
			}
		}
	}
	// An assignment whose edge is gone is repaired next round only if a
	// recheck is due for it then or the sweep runs; otherwise the slot
	// would go on being served by a box that lacks the data.
	if !s.needSweep {
		covered := make([]bool, nSlots)
		for _, l := range dueNext {
			covered[l] = true
		}
		for _, slot := range s.matcher.ActiveLefts() {
			if r := s.matcher.Server(int(slot)); r >= 0 && !covered[slot] && !s.adj.CanServe(int(slot), r) {
				return fmt.Errorf("live slot %d is served by box %d, which cannot serve it, and no recheck is due", slot, r)
			}
		}
	}

	backed := make([]uint8, nSlots) // per slot: a bit per lag of the entries it backs
	for st, e := range s.avail.all() {
		req, lag, start := e.req(), e.lag(), e.start()
		switch {
		case !inRange(e.box):
			return fmt.Errorf("stripe %d entry names box %d with lag %d", st, e.box, lag)
		case start < round-T || start > round+1:
			return fmt.Errorf("stripe %d entry of box %d starts at round %d, outside [%d, %d]", st, e.box, start, round-T, round+1)
		case req < 0:
			continue
		case !s.matcher.Active(int(req)) || s.reqStripe[req] != st:
			return fmt.Errorf("stripe %d entry is backed by slot %d, which is no live request of that stripe", st, req)
		case e.issued != s.reqStart[req]:
			return fmt.Errorf("stripe %d entry issued at round %d is backed by slot %d, which started at %d", st, e.issued, req, s.reqStart[req])
		case e.box != []int32{s.reqBox[req], s.reqViewer[req]}[lag]:
			return fmt.Errorf("stripe %d entry of box %d with lag %d is backed by slot %d, whose requester is %d and viewer %d",
				st, e.box, lag, req, s.reqBox[req], s.reqViewer[req])
		case lag == 1 && s.reqBox[req] == s.reqViewer[req]:
			return fmt.Errorf("stripe %d entry of box %d forwards slot %d to its own requester", st, e.box, req)
		case backed[req]&(1<<lag) != 0:
			return fmt.Errorf("slot %d backs two stripe %d entries of lag %d", req, st, lag)
		}
		backed[req] |= 1 << lag
	}
	return nil
}
