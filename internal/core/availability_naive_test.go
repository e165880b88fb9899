package core

import (
	"iter"

	"repro/internal/ckpt"
	"repro/internal/video"
)

// naiveAvailability is the executable specification of the availability
// substrate: flat per-stripe entry slices with linear scans everywhere and
// a full-catalog sweep on expiry — the original hot path, retained so the
// differential tests can pin indexedAvailability to its exact semantics.
// A test installs it with s.avail = newNaiveAvailability(…) right after
// NewSystem and forces the Revalidate sweep (it logs no events).
type naiveAvailability struct {
	T       int
	entries [][]entry // per stripe, in insertion order
}

func newNaiveAvailability(numStripes, T int) *naiveAvailability {
	return &naiveAvailability{T: T, entries: make([][]entry, numStripes)}
}

func (na *naiveAvailability) add(st video.StripeID, e entry) {
	na.entries[st] = append(na.entries[st], e)
}

// expire drops cache entries whose window has passed: an entry started at
// t_j serves only while t_j ≥ t − T (Section 2.2).
func (na *naiveAvailability) expire(round int) {
	cutoff := int32(round - na.T)
	for st, es := range na.entries {
		keep := 0
		for i := range es {
			if es[i].start >= cutoff {
				es[keep] = es[i]
				keep++
			}
		}
		if keep != len(es) {
			tail := es[keep:]
			for i := range tail {
				tail[i] = entry{}
			}
			na.entries[st] = es[:keep]
		}
	}
}

func (na *naiveAvailability) retire(st video.StripeID, req int32, final int32) {
	for i := range na.entries[st] {
		e := &na.entries[st][i]
		if e.req == req {
			e.frozen = final - e.lag
			e.req = -1
		}
	}
}

// visitHead returns position 0: the naive walk is a plain index scan of
// the stripe's insertion-ordered slice.
func (na *naiveAvailability) visitHead(st video.StripeID) int32 { return 0 }

func (na *naiveAvailability) visitStep(st video.StripeID, h int32, exclude int32, need int32, pv progressView) (int32, int32) {
	es := na.entries[st]
	for i := h; int(i) < len(es); i++ {
		e := &es[i]
		if e.box != exclude && entryChunks(e, pv) > need {
			return e.box, i + 1
		}
	}
	return -1, -1
}

func (na *naiveAvailability) canServe(st video.StripeID, box int32, need int32, pv progressView) bool {
	for i := range na.entries[st] {
		e := &na.entries[st][i]
		if e.box == box && entryChunks(e, pv) > need {
			return true
		}
	}
	return false
}

func (na *naiveAvailability) hasFull(st video.StripeID, box int32, full int32) bool {
	for i := range na.entries[st] {
		e := &na.entries[st][i]
		if e.box == box && e.req == -1 && e.frozen >= full {
			return true
		}
	}
	return false
}

func (na *naiveAvailability) live(st video.StripeID) int { return len(na.entries[st]) }

func (na *naiveAvailability) margin(st video.StripeID, box int32, need int32, pv progressView) (hasLive bool, bestFrozen int32, ok bool) {
	for i := range na.entries[st] {
		e := &na.entries[st][i]
		if e.box != box || entryChunks(e, pv) <= need {
			continue
		}
		ok = true
		if e.req >= 0 {
			hasLive = true
		} else if e.frozen > bestFrozen {
			bestFrozen = e.frozen
		}
	}
	return hasLive, bestFrozen, ok
}

// drainEvents is a no-op: the naive store pairs with the full Revalidate
// sweep, which needs no targeted notifications.
func (na *naiveAvailability) drainEvents(dst []availEvent) []availEvent { return dst }

func (na *naiveAvailability) all() iter.Seq2[video.StripeID, *entry] {
	return func(yield func(video.StripeID, *entry) bool) {
		for st, list := range na.entries {
			for i := range list {
				if !yield(video.StripeID(st), &list[i]) {
					return
				}
			}
		}
	}
}

// The reference store is never checkpointed.
func (na *naiveAvailability) encodeState(*ckpt.Writer) { panic("core: naive store has no codec") }
func (na *naiveAvailability) decodeState(*ckpt.Reader, int) error {
	panic("core: naive store has no codec")
}
