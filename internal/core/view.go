package core

import (
	"repro/internal/video"
)

// View is the read-only window demand generators get on the system.
// Adversarial generators use it to aim at the weakest point the current
// state exposes; it exposes nothing a real-world adversary observing the
// system could not infer.
type View struct{ s *System }

// View returns the system's read-only view.
func (s *System) View() *View { return &s.view }

// Round returns the current round.
func (v *View) Round() int { return v.s.round }

// NumBoxes returns the number of boxes.
func (v *View) NumBoxes() int { return v.s.n }

// Catalog returns the catalog.
func (v *View) Catalog() video.Catalog { return v.s.cat }

// BoxIdle reports whether box b can accept a demand this round.
func (v *View) BoxIdle(b int) bool {
	box := &v.s.boxes[b]
	return !box.busy && box.outstanding == 0
}

// Upload returns the normalized upload capacity of box b.
func (v *View) Upload(b int) float64 { return v.s.cfg.Uploads[b] }

// UploadSlots returns the matching capacity of box b in stripe slots
// (after relay reservations).
func (v *View) UploadSlots(b int) int64 { return int64(v.s.boxes[b].capSlots) }

// SwarmSize returns the current swarm size of a video.
func (v *View) SwarmSize(id video.ID) int { return v.s.tracker.Size(id) }

// SwarmAllowance returns how many boxes may still join the video's swarm
// this round under the growth bound µ.
func (v *View) SwarmAllowance(id video.ID) int { return v.s.tracker.Allowance(id) }

// Stores reports whether box b statically stores stripe st.
func (v *View) Stores(b int, st video.StripeID) bool { return v.s.cfg.Alloc.Stores(b, st) }

// Replicas returns the allocation replica count of a stripe.
func (v *View) Replicas(st video.StripeID) int { return v.s.cfg.Alloc.Replicas(st) }

// StripeHolders returns the boxes storing stripe st by allocation.
// The returned slice must not be modified.
func (v *View) StripeHolders(st video.StripeID) []int32 { return v.s.cfg.Alloc.Holders(st) }

// IdleBoxes appends the indices of all idle boxes to dst in ascending
// order and returns it. Cost is O(idle) via the system's hierarchical
// idle bitmap — no per-call sort, and it never scans the full
// population. Callers that can accept arbitrary order (or want to stop
// early) should use VisitIdle instead.
func (v *View) IdleBoxes(dst []int) []int {
	return v.s.idleBits.appendAscending(dst)
}

// VisitIdle calls fn for every idle box, stopping early if fn returns
// false. Iteration order is arbitrary (the idle index's internal order)
// but deterministic for a given demand history; cost is O(visited).
func (v *View) VisitIdle(fn func(b int) bool) {
	for _, b := range v.s.idleList {
		if !fn(int(b)) {
			return
		}
	}
}

// NumIdle returns the number of idle boxes in O(1).
func (v *View) NumIdle() int { return len(v.s.idleList) }

// ActiveRequests returns the number of in-flight stripe requests.
func (v *View) ActiveRequests() int { return v.s.activeReqs }

// ServerLoad returns the matcher load of box b this round (slots in use
// as of the previous matching).
func (v *View) ServerLoad(b int) int64 { return v.s.matcher.Load(b) }
