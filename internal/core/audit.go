package core

import "fmt"

// audit checks the invariants each part of the engine trusts of the
// others: a Step indexes arrays by the ids one structure hands another,
// and an outstanding count or idle list that disagrees with the slots
// corrupts admission silently. DecodeState runs it on every checkpoint it
// restores, and Step after every round under Config.Paranoid. It holds:
//
//   - the swarm tracker is at the round; the live list (the matcher's
//     active lefts) and freeSlots partition the slot ids;
//   - each live slot's stripe, box and viewer are in range, and it has
//     start ≤ round and base ≥ start;
//   - each pending issuance is filed under its round, due within the
//     horizon, names a stripe and boxes in range, and mirrors, if at all,
//     to its viewer; outstanding[b] is the live slots plus the pending
//     issuances b views; the idle list is exactly the boxes with nothing
//     outstanding, each at its idlePos; the recheck ring names slot ids;
//   - every cache entry names a box in range, has lag 0 or 1 and
//     round−T ≤ start ≤ round+1; a request-backed entry names a live slot
//     of its own stripe, was issued at that slot's start and is held by
//     the slot's requester (lag 0) or viewer, the mirror (lag 1); frozen
//     progress is in [0, T].
//
// Some invariants are DecodeState's own, checked as it reads because it
// builds on them before the audit runs: each live slot's progress (clock −
// base) is in [0, T], the idle list names boxes in range, and each cache
// entry's backing slot, if any, is one of the slot ids, backing at most
// one other entry.
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
		for _, iss := range bucket {
			switch {
			case iss.round%len(s.pendingRing) != i || iss.round <= s.round || iss.round > s.round+maxIssuanceDelay:
				return fmt.Errorf("pending bucket %d holds an issuance for round %d at round %d", i, iss.round, s.round)
			case iss.stripe < 0 || int(iss.stripe) >= s.cat.NumStripes() || !inRange(iss.requester) ||
				!inRange(iss.viewer) || iss.mirror != -1 && iss.mirror != iss.viewer:
				return fmt.Errorf("pending issuance names stripe %d, requester %d, viewer %d and mirror %d",
					iss.stripe, iss.requester, iss.viewer, iss.mirror)
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
	for _, bucket := range s.recheckRing {
		for _, l := range bucket {
			if l < 0 || int(l) >= nSlots {
				return fmt.Errorf("recheck ring names slot %d of %d", l, nSlots)
			}
		}
	}

	for st, e := range s.avail.all() {
		switch {
		case !inRange(e.box) || e.lag < 0 || e.lag > 1:
			return fmt.Errorf("stripe %d entry names box %d with lag %d", st, e.box, e.lag)
		case e.start < round-T || e.start > round+1:
			return fmt.Errorf("stripe %d entry of box %d starts at round %d, outside [%d, %d]", st, e.box, e.start, round-T, round+1)
		case e.req >= 0 && (!s.matcher.Active(int(e.req)) || s.reqStripe[e.req] != st):
			return fmt.Errorf("stripe %d entry is backed by slot %d, which is no live request of that stripe", st, e.req)
		case e.req >= 0 && e.issued() != s.reqStart[e.req]:
			return fmt.Errorf("stripe %d entry issued at round %d is backed by slot %d, which started at %d", st, e.issued(), e.req, s.reqStart[e.req])
		case e.req >= 0 && e.box != []int32{s.reqBox[e.req], s.reqViewer[e.req]}[e.lag]:
			return fmt.Errorf("stripe %d entry of box %d with lag %d is backed by slot %d, whose requester is %d and viewer %d",
				st, e.box, e.lag, e.req, s.reqBox[e.req], s.reqViewer[e.req])
		case e.req < 0 && (e.frozen < 0 || e.frozen > T):
			return fmt.Errorf("stripe %d entry of box %d froze at progress %d, T is %d", st, e.box, e.frozen, T)
		}
	}
	return nil
}
