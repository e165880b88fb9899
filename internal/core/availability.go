package core

import (
	"fmt"
	"iter"

	"repro/internal/ckpt"
	"repro/internal/video"
)

// entry is a playback-cache record: box started receiving the stripe at
// round start and can serve chunk p to any request that is at least one
// chunk behind it, as long as the window t−T ≤ start holds (enforced by
// expiry). A forwarded copy (relay → poor box) trails its backing request
// by lag rounds.
type entry struct {
	box    int32
	start  int32
	req    int32 // backing request slot, or -1 once frozen
	lag    int32
	frozen int32 // progress at freeze time (valid when req == -1)
}

// progressView reads request progress without storing it: a live slot
// has progress clock − base[slot]. Every matched request advances when
// the clock ticks; a stalled one bumps its base instead.
type progressView struct {
	clock int32
	base  []int32
}

// of returns live slot's progress in chunks.
func (v progressView) of(slot int32) int32 { return v.clock - v.base[slot] }

// issued returns the round the entry's request was issued: a mirror
// entry starts one round after its request (start = round+1, lag 1), so
// the issue round is start − lag, not start.
func (e *entry) issued() int32 { return e.start - e.lag }

// entryChunks returns how many chunks the entry's box has of its stripe.
func entryChunks(e *entry, pv progressView) int32 {
	if e.req >= 0 {
		p := pv.of(e.req) - e.lag
		if p < 0 {
			return 0
		}
		return p
	}
	return e.frozen
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
	// retire freezes all entries backed by request slot req at final
	// progress final (each entry freezes at final−lag).
	retire(st video.StripeID, req int32, final int32)
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
	// hasFull reports whether box holds a frozen full copy of st (frozen
	// progress ≥ full) still inside the window, which expiry enforces: the
	// round's expire has run by the time admission asks.
	hasFull(st video.StripeID, box int32, full int32) bool
	// live returns the number of entries currently indexed for st.
	live(st video.StripeID) int
	// margin summarizes box's serving credential for st beyond need: ok
	// reports whether any entry serves (chunks > need, i.e. canServe),
	// hasLive whether a live request-backed entry does (such an edge
	// cannot decay while every request keeps progressing), and bestFrozen
	// the maximum frozen progress among serving frozen entries — the round
	// budget before a frozen-only edge is overtaken by the requester.
	margin(st video.StripeID, box int32, need int32, pv progressView) (hasLive bool, bestFrozen int32, ok bool)
	// drainEvents appends the (stripe, box) freeze/expiry events recorded
	// since the last drain and clears the log. Keys may repeat.
	drainEvents(dst []availEvent) []availEvent
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
// issue rounds), a per-(stripe,box) chain index for O(1)
// lookups, and a round-bucketed expiry ring so each round touches only the
// entries whose window actually closes — never the full catalog. All
// linkage runs through one slab, so steady-state operation allocates
// nothing per stripe. Only the lists' contents and order are state; the
// slab ids, the free list, the key chains, the expiry buckets and the
// request links are indexes over them that add rebuilds from the lists
// alone (a checkpoint carries the lists, see checkpoint.go).
type indexedAvailability struct {
	T    int
	slab []idxEntry

	byStripe  []int32      // per stripe: head of the live-entry list, −1 empty
	liveCount []int32      // per stripe: live entries
	reqLinks  [][2]int32   // per request slot: backing entry ids or −1
	free      []int32      // slab free list
	byKey     keyIndex     // (stripe, box) → head of same-key chain
	ring      [][]int32    // entry ids bucketed by start mod ring length
	eventLog  []availEvent // freeze/expiry events since the last drain
}

// availKey packs a (stripe, box) pair into one index key.
func availKey(st video.StripeID, box int32) uint64 {
	return uint64(uint32(st))<<32 | uint64(uint32(box))
}

// idxEntry decorates entry with the index back-pointers.
type idxEntry struct {
	entry
	stripe     video.StripeID
	next, prev int32 // intrusive per-stripe live list
	nextKey    int32 // next entry id with the same (stripe, box), or −1
	// jump is the first later entry of the stripe list issued at a
	// strictly earlier round, or −1: the end of this entry's run.
	jump int32
}

// newIndexedAvailability sizes the store for a catalog. The ring needs
// T+3 slots so a bucket is always drained before a start value T+3 newer
// can land in it (live starts span [t−T, t+1] plus the slot being drained);
// one extra slot keeps the margin obvious.
func newIndexedAvailability(numStripes, T int) *indexedAvailability {
	ix := &indexedAvailability{
		T:         T,
		byStripe:  make([]int32, numStripes),
		liveCount: make([]int32, numStripes),
		byKey:     newKeyIndex(0),
		ring:      make([][]int32, T+4),
	}
	for st := range ix.byStripe {
		ix.byStripe[st] = -1
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
	nextKey := ix.byKey.swap(availKey(st, e.box), id)
	head := ix.byStripe[st]
	jump := head
	if head >= 0 {
		switch h := &ix.slab[head]; {
		case h.issued() == e.issued():
			jump = h.jump
		case h.issued() > e.issued():
			panic(fmt.Sprintf("core: stripe %d entry issued at round %d added after one issued at %d", st, e.issued(), h.issued()))
		}
	}
	ix.slab[id] = idxEntry{
		entry:   e,
		stripe:  st,
		next:    head,
		prev:    -1,
		nextKey: nextKey,
		jump:    jump,
	}
	if head >= 0 {
		ix.slab[head].prev = id
	}
	ix.byStripe[st] = id
	ix.liveCount[st]++
	bucket := int(e.start) % len(ix.ring)
	ix.ring[bucket] = append(ix.ring[bucket], id)
	if e.req >= 0 {
		ix.linkReq(e.req, id)
	}
}

// linkReq records id as one of the (at most two) entries backed by slot req.
func (ix *indexedAvailability) linkReq(req, id int32) {
	for int(req) >= len(ix.reqLinks) {
		ix.reqLinks = append(ix.reqLinks, [2]int32{-1, -1})
	}
	links := &ix.reqLinks[req]
	switch {
	case links[0] < 0:
		links[0] = id
	case links[1] < 0:
		links[1] = id
	default:
		panic(fmt.Sprintf("core: request %d backs more than two cache entries", req))
	}
}

// unlinkReq clears the backlink from slot req to entry id.
func (ix *indexedAvailability) unlinkReq(req, id int32) {
	links := &ix.reqLinks[req]
	switch {
	case links[0] == id:
		links[0] = -1
	case links[1] == id:
		links[1] = -1
	}
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

// remove unlinks entry id from the stripe list, the key chain, and its
// backing request, and returns the slab slot to the free list.
func (ix *indexedAvailability) remove(id int32) {
	e := &ix.slab[id]
	// Stripe list: unlink. When id opens its run, the previous run's
	// entries all jump to it: retarget them to the next entry of the run,
	// or past the run when id was its last. Expiry removes in issue order,
	// so a run is retargeted at most twice (primaries, then mirrors).
	if e.prev >= 0 {
		if r := e.issued(); ix.slab[e.prev].issued() != r {
			target := e.jump
			if e.next >= 0 && ix.slab[e.next].issued() == r {
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
	ix.liveCount[e.stripe]--
	// Key chain.
	byKey := &ix.byKey
	slot := byKey.find(availKey(e.stripe, e.box))
	if head := byKey.slots[slot].val; head == id {
		if e.nextKey < 0 {
			byKey.del(slot)
		} else {
			byKey.slots[slot].val = e.nextKey
		}
	} else {
		for cur := head; cur >= 0; cur = ix.slab[cur].nextKey {
			if ix.slab[cur].nextKey == id {
				ix.slab[cur].nextKey = e.nextKey
				break
			}
		}
	}
	if e.req >= 0 {
		ix.unlinkReq(e.req, id)
	}
	ix.eventLog = append(ix.eventLog, availEvent{stripe: e.stripe, box: e.box})
	ix.slab[id] = idxEntry{}
	ix.free = append(ix.free, id)
}

func (ix *indexedAvailability) retire(_ video.StripeID, req int32, final int32) {
	if int(req) >= len(ix.reqLinks) {
		return
	}
	links := &ix.reqLinks[req]
	for i, id := range links {
		if id < 0 {
			continue
		}
		e := &ix.slab[id]
		e.frozen = final - e.lag
		e.req = -1
		links[i] = -1
		ix.eventLog = append(ix.eventLog, availEvent{stripe: e.stripe, box: e.box})
	}
}

func (ix *indexedAvailability) visitHead(st video.StripeID) int32 { return ix.byStripe[st] }

func (ix *indexedAvailability) visitStep(st video.StripeID, h int32, exclude int32, need int32, pv progressView) (int32, int32) {
	slab, id := ix.slab, h
	for young := pv.clock - need; id >= 0; id = slab[id].jump {
		if slab[id].issued() < young {
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

func (ix *indexedAvailability) canServe(st video.StripeID, box int32, need int32, pv progressView) bool {
	for id := ix.byKey.get(availKey(st, box)); id >= 0; id = ix.slab[id].nextKey {
		if entryChunks(&ix.slab[id].entry, pv) > need {
			return true
		}
	}
	return false
}

func (ix *indexedAvailability) hasFull(st video.StripeID, box int32, full int32) bool {
	for id := ix.byKey.get(availKey(st, box)); id >= 0; id = ix.slab[id].nextKey {
		e := &ix.slab[id]
		if e.req == -1 && e.frozen >= full {
			return true
		}
	}
	return false
}

func (ix *indexedAvailability) live(st video.StripeID) int { return int(ix.liveCount[st]) }

func (ix *indexedAvailability) margin(st video.StripeID, box int32, need int32, pv progressView) (hasLive bool, bestFrozen int32, ok bool) {
	for id := ix.byKey.get(availKey(st, box)); id >= 0; id = ix.slab[id].nextKey {
		e := &ix.slab[id].entry
		if entryChunks(e, pv) <= need {
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

func (ix *indexedAvailability) drainEvents(dst []availEvent) []availEvent {
	dst = append(dst, ix.eventLog...)
	ix.eventLog = ix.eventLog[:0]
	return dst
}
