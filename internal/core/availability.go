package core

import (
	"fmt"
	"iter"

	"repro/internal/ckpt"
	"repro/internal/video"
)

// entry is a playback-cache record: box started receiving the stripe lag
// rounds after its backing request was issued, and can serve chunk p to
// any request that is at least one chunk behind it, as long as the window
// t−T ≤ start holds (enforced by expiry). A forwarded copy (relay → poor
// box) trails its backing request by lag 1.
//
// The record is 12 bytes. issued is stored, not start, because the stripe
// walk reads it on every step; tag packs the rest. Its bit 0 is the lag,
// and the bits above it hold the backing request slot (≥ 0) while that
// request is live, or ^frozen (< 0), the progress the entry froze at,
// once it retired: only one of the two is ever meaningful. Slots and
// frozen progress both stay below maxPacked.
type entry struct {
	box    int32
	issued int32
	tag    int32
}

// maxPacked bounds what an entry's tag can hold: a slot id or a frozen
// progress, each shifted left by one bit.
const maxPacked = 1 << 30

// liveEntry returns box's entry backed by slot, issued at round issued
// and trailing the request by lag (0 or 1) rounds.
func liveEntry(box, issued, slot, lag int32) entry {
	return entry{box: box, issued: issued, tag: slot<<1 | lag}
}

// lag returns 1 for a forwarded copy, 0 for the requester's own.
func (e *entry) lag() int32 { return e.tag & 1 }

// start returns the round the entry's box started receiving the stripe:
// a mirror starts one round after its request.
func (e *entry) start() int32 { return e.issued + e.tag&1 }

// req returns the backing request slot, or −1 once the entry froze.
func (e *entry) req() int32 {
	if e.tag < 0 {
		return -1
	}
	return e.tag >> 1
}

// frozen returns the progress a frozen entry froze at (req() == −1).
func (e *entry) frozen() int32 { return ^(e.tag >> 1) }

// freeze detaches the entry from its request, whose final progress was
// final: the entry keeps final−lag chunks, or none when a mirror's
// request retires before its first chunk.
func (e *entry) freeze(final int32) { e.tag = ^max(final-e.lag(), 0)<<1 | e.lag() }

// progressView reads request progress without storing it: a live slot
// has progress clock − base[slot]. Every matched request advances when
// the clock ticks; a stalled one bumps its base instead.
type progressView struct {
	clock int32
	base  []int32
}

// of returns live slot's progress in chunks.
func (v progressView) of(slot int32) int32 { return v.clock - v.base[slot] }

// entryChunks returns how many chunks the entry's box has of its stripe.
func entryChunks(e *entry, pv progressView) int32 {
	if e.tag >= 0 {
		p := pv.of(e.tag>>1) - e.tag&1
		if p < 0 {
			return 0
		}
		return p
	}
	return ^(e.tag >> 1)
}

// availEvent records that one or more entries of (stripe, box) froze or
// expired this round: a previously valid server edge under that key can
// now decay, so assignments to box for stripe must be re-examined. Events
// are the substrate of the engine's event-driven matcher invalidation —
// they name exactly the (stripe, box) keys whose serving power changed,
// so the engine never has to sweep the full assignment set.
type availEvent struct {
	stripe video.StripeID
	box    int32
}

// availabilityStore indexes the playback-cache entries that, together with
// the static allocation, define the server sets B(x) of Section 2.2. The
// production implementation is indexedAvailability; the differential
// tests substitute a linear-scan reference through this interface.
type availabilityStore interface {
	// add records a new cache entry for stripe st.
	add(st video.StripeID, e entry)
	// expire drops every entry whose serving window has closed at the
	// given round (start < round−T).
	expire(round int)
	// retire freezes all entries of stripe st backed by request slot req
	// at final progress final (each entry freezes at final−lag, at least
	// 0): the requester's own entry first, then the copy it forwards to
	// its viewer, if any.
	retire(st video.StripeID, req, final int32)
	// visitHead returns the starting position of stripe st's entry walk
	// for visitStep — an implementation-defined token, not a box id.
	// Together they enumerate the boxes serving a request of st, for the
	// adjacency's bipartite.Adjacency cursor. Positions stay valid as long
	// as the store is quiescent (no add/retire/expire), which holds
	// throughout the matching phase.
	visitHead(st video.StripeID) int32
	// visitStep scans from position h for the next entry of st whose box
	// is not exclude and whose progress exceeds need, returning its box
	// and the position after it. Exhaustion returns box -1. Every store
	// yields the same entries in the same order as a plain scan of its
	// own sequence; the indexed store's sequence is the naive store's
	// reversed. The indexed store skips, a whole run at a time, entries
	// that the progress bound proves cannot serve:
	//   - bound: an entry issued at round r has at most clock − r chunks
	//     (issueRequest sets base = clock = r and a base only grows, so a
	//     live entry has clock − base − lag ≤ clock − r and a frozen one
	//     froze at final − lag ≤ clock − r), so r ≥ clock − need cannot
	//     pass chunks > need;
	//   - order: add prepends and issue rounds never decrease, so every
	//     stripe list is non-increasing in r from its head, and every
	//     entry past the skipped prefix has r < clock − need.
	visitStep(st video.StripeID, h int32, exclude int32, need int32, pv progressView) (box, next int32)
	// canServe reports whether box has an entry for st with progress
	// beyond need.
	canServe(st video.StripeID, box int32, need int32, pv progressView) bool
	// markFull sets held[i] when box holds a frozen full copy of stripe
	// first+i (frozen progress ≥ full) still inside the window, which
	// expiry enforces: the round's expire has run by the time admission
	// asks. It leaves every other flag as it is.
	markFull(box int32, first video.StripeID, full int32, held []bool)
	// empty reports whether st has no entry.
	empty(st video.StripeID) bool
	// margin summarizes box's serving credential for st beyond need: ok
	// reports whether any entry serves (chunks > need, i.e. canServe),
	// hasLive whether a live request-backed entry does (such an edge
	// cannot decay while every request keeps progressing), and bestFrozen
	// the maximum frozen progress among serving frozen entries — the round
	// budget before a frozen-only edge is overtaken by the requester.
	margin(st video.StripeID, box int32, need int32, pv progressView) (hasLive bool, bestFrozen int32, ok bool)
	// takeEvents returns the (stripe, box) freeze/expiry events recorded
	// since the last take and clears the log. Keys may repeat. The slice
	// is the store's own: it is valid until the next add, expire or
	// retire.
	takeEvents() []availEvent
	// all yields every entry with its stripe, stripe by stripe, each
	// stripe's in the store's own order (the audit reads them).
	all() iter.Seq2[video.StripeID, *entry]
	// encodeState / decodeState serialize the store's entry lists for
	// checkpointing (see checkpoint.go). decodeState targets a freshly
	// constructed store with the same shape (stripes, T); slots is the
	// checkpoint's slot count, which every backing slot id is below.
	encodeState(w *ckpt.Writer)
	decodeState(r *ckpt.Reader, slots int) error
}

// indexedAvailability is the production store: intrusive per-stripe lists
// of live entries for iteration (newest first, with run links over equal
// issue rounds), a per-box chain of the box's entries for the lookups by
// box, a per-slot link to the entries each live request backs, and a
// round-bucketed expiry ring so each round touches only the entries whose
// window actually closes — never the full catalog. Every lookup starts
// from an array indexed by stripe, box or slot: nothing is hashed. All
// linkage runs through one slab, so steady-state operation allocates
// nothing per stripe. Only the lists' contents and order are state; the
// slab ids, the free list, the box chains, the slot links and the expiry
// buckets are indexes over them that add rebuilds from the lists alone (a
// checkpoint carries the lists, see checkpoint.go).
//
// A box's chain is circular and singly linked: byBox holds its newest
// entry, whose nextBox is the oldest, so add links in O(1). Expiry removes
// the oldest entry of a box in O(1) as long as the box's entries expire in
// the order they were added, which holds in a continuous run up to the
// one-round lag of a forwarded copy; any other removal walks the chain.
// After a restore, decode has added the entries stripe by stripe, so for
// one window a removal may walk from the oldest entry.
type indexedAvailability struct {
	T    int
	slab []idxEntry

	byStripe []int32      // per stripe: head of the live-entry list, −1 empty
	byBox    []int32      // per box: its newest entry, −1 when it has none
	bySlot   []int32      // per tag 2·slot+lag: the live entry so backed, −1 none
	free     []int32      // slab free list
	ring     [][]int32    // entry ids bucketed by start mod ring length
	eventLog []availEvent // freeze/expiry events since the last take
}

// idxEntry decorates entry with the index links: 32 bytes, two entries
// to a cache line.
type idxEntry struct {
	entry
	stripe     video.StripeID
	next, prev int32 // intrusive per-stripe live list
	nextBox    int32 // the next older entry of the same box; the oldest's is the newest
	// jump is the first later entry of the stripe list issued at a
	// strictly earlier round, or −1: the end of this entry's run.
	jump int32
}

// newIndexedAvailability sizes the store for a catalog and a population.
// The ring needs T+3 slots so a bucket is always drained before a start
// value T+3 newer can land in it (live starts span [t−T, t+1] plus the
// slot being drained); one extra slot keeps the margin obvious.
func newIndexedAvailability(numStripes, numBoxes, T int) *indexedAvailability {
	ix := &indexedAvailability{
		T:        T,
		byStripe: make([]int32, numStripes),
		byBox:    make([]int32, numBoxes),
		ring:     make([][]int32, T+4),
	}
	for st := range ix.byStripe {
		ix.byStripe[st] = -1
	}
	for b := range ix.byBox {
		ix.byBox[b] = -1
	}
	return ix
}

func (ix *indexedAvailability) add(st video.StripeID, e entry) {
	var id int32
	if n := len(ix.free); n > 0 {
		id = ix.free[n-1]
		ix.free = ix.free[:n-1]
	} else {
		id = int32(len(ix.slab))
		ix.slab = append(ix.slab, idxEntry{})
	}
	head := ix.byStripe[st]
	jump := head
	if head >= 0 {
		switch h := &ix.slab[head]; {
		case h.issued == e.issued:
			jump = h.jump
		case h.issued > e.issued:
			panic(fmt.Sprintf("core: stripe %d entry issued at round %d added after one issued at %d", st, e.issued, h.issued))
		}
	}
	older := id
	if newest := ix.byBox[e.box]; newest >= 0 {
		older = ix.slab[newest].nextBox
		ix.slab[newest].nextBox = id
	}
	ix.byBox[e.box] = id
	ix.slab[id] = idxEntry{
		entry:   e,
		stripe:  st,
		next:    head,
		prev:    -1,
		nextBox: older,
		jump:    jump,
	}
	if head >= 0 {
		ix.slab[head].prev = id
	}
	ix.byStripe[st] = id
	if e.tag >= 0 {
		for int(e.tag) >= len(ix.bySlot) {
			ix.bySlot = append(ix.bySlot, -1, -1)
		}
		ix.bySlot[e.tag] = id
	}
	bucket := int(e.start()) % len(ix.ring)
	ix.ring[bucket] = append(ix.ring[bucket], id)
}

func (ix *indexedAvailability) expire(round int) {
	start := round - ix.T - 1
	if start < 1 {
		return
	}
	bucket := start % len(ix.ring)
	ids := ix.ring[bucket]
	ix.ring[bucket] = ids[:0]
	for _, id := range ids {
		ix.remove(id)
	}
}

// remove unlinks entry id from the stripe list, its box's chain and, when
// its request is still live, the request's link, and returns the slab
// slot to the free list.
func (ix *indexedAvailability) remove(id int32) {
	e := &ix.slab[id]
	// Stripe list: unlink. When id opens its run, the previous run's
	// entries all jump to it: retarget them to the next entry of the run,
	// or past the run when id was its last. Expiry removes in issue order,
	// so a run is retargeted at most twice (primaries, then mirrors).
	if e.prev >= 0 {
		if r := e.issued; ix.slab[e.prev].issued != r {
			target := e.jump
			if e.next >= 0 && ix.slab[e.next].issued == r {
				target = e.next
			}
			for q := e.prev; q >= 0 && ix.slab[q].jump == id; q = ix.slab[q].prev {
				ix.slab[q].jump = target
			}
		}
		ix.slab[e.prev].next = e.next
	} else {
		ix.byStripe[e.stripe] = e.next
	}
	if e.next >= 0 {
		ix.slab[e.next].prev = e.prev
	}
	// Box chain: the walk starts at the newest entry, whose successor is
	// the oldest, so removing the oldest takes no step.
	newest := ix.byBox[e.box]
	p := newest
	for ix.slab[p].nextBox != id {
		p = ix.slab[p].nextBox
	}
	ix.slab[p].nextBox = e.nextBox
	switch {
	case p == id:
		ix.byBox[e.box] = -1
	case newest == id:
		ix.byBox[e.box] = p
	}
	if e.tag >= 0 {
		ix.bySlot[e.tag] = -1
	}
	ix.eventLog = append(ix.eventLog, availEvent{stripe: e.stripe, box: e.box})
	ix.slab[id] = idxEntry{}
	ix.free = append(ix.free, id)
}

func (ix *indexedAvailability) retire(st video.StripeID, req, final int32) {
	if int(2*req) >= len(ix.bySlot) {
		return // cache serving is off: no entry was ever added
	}
	for _, k := range [2]int32{2 * req, 2*req + 1} {
		if id := ix.bySlot[k]; id >= 0 {
			ix.bySlot[k] = -1
			e := &ix.slab[id]
			e.freeze(final)
			ix.eventLog = append(ix.eventLog, availEvent{stripe: st, box: e.box})
		}
	}
}

func (ix *indexedAvailability) visitHead(st video.StripeID) int32 { return ix.byStripe[st] }

func (ix *indexedAvailability) visitStep(st video.StripeID, h int32, exclude int32, need int32, pv progressView) (int32, int32) {
	slab, id := ix.slab, h
	for young := pv.clock - need; id >= 0; id = slab[id].jump {
		if slab[id].issued < young {
			break
		}
	}
	for ; id >= 0; id = slab[id].next {
		e := &slab[id]
		if e.box != exclude && entryChunks(&e.entry, pv) > need {
			return e.box, e.next
		}
	}
	return -1, -1
}

// canServe, markFull and margin walk box's chain from its oldest entry,
// the newest's successor, to the newest.
func (ix *indexedAvailability) canServe(st video.StripeID, box int32, need int32, pv progressView) bool {
	newest := ix.byBox[box]
	for id := newest; newest >= 0; {
		id = ix.slab[id].nextBox
		if e := &ix.slab[id]; e.stripe == st && entryChunks(&e.entry, pv) > need {
			return true
		}
		if id == newest {
			break
		}
	}
	return false
}

func (ix *indexedAvailability) markFull(box int32, first video.StripeID, full int32, held []bool) {
	newest := ix.byBox[box]
	for id := newest; newest >= 0; {
		id = ix.slab[id].nextBox
		if e := &ix.slab[id]; e.tag < 0 && e.frozen() >= full {
			if i := uint(e.stripe - first); i < uint(len(held)) {
				held[i] = true
			}
		}
		if id == newest {
			break
		}
	}
}

func (ix *indexedAvailability) empty(st video.StripeID) bool { return ix.byStripe[st] < 0 }

func (ix *indexedAvailability) margin(st video.StripeID, box int32, need int32, pv progressView) (hasLive bool, bestFrozen int32, ok bool) {
	newest := ix.byBox[box]
	for id := newest; newest >= 0; {
		id = ix.slab[id].nextBox
		if e := &ix.slab[id]; e.stripe == st && entryChunks(&e.entry, pv) > need {
			ok = true
			if e.tag >= 0 {
				hasLive = true
			} else if f := e.frozen(); f > bestFrozen {
				bestFrozen = f
			}
		}
		if id == newest {
			break
		}
	}
	return hasLive, bestFrozen, ok
}

func (ix *indexedAvailability) all() iter.Seq2[video.StripeID, *entry] {
	return func(yield func(video.StripeID, *entry) bool) {
		for st, head := range ix.byStripe {
			for id := head; id >= 0; id = ix.slab[id].next {
				if !yield(video.StripeID(st), &ix.slab[id].entry) {
					return
				}
			}
		}
	}
}

func (ix *indexedAvailability) takeEvents() []availEvent {
	events := ix.eventLog
	ix.eventLog = events[:0]
	return events
}
