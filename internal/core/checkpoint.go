package core

// Checkpoint serialization of the full engine state, versioned and pinned
// to the configuration by a fingerprint. The contract is bit-identical
// resumption: a System restored from a checkpoint must produce exactly the
// StepResults, obstruction certificates, and failure rounds of the
// uncheckpointed run (enforced by the round-trip differential in
// checkpoint_test.go). That dictates the same discipline used in the
// bipartite and swarm encoders:
//
//   - Everything whose *order* the engine observes is written verbatim:
//     the live-request list (sweep order), slot free list (pop order
//     drives id reuse, which drives availability-list order, which drives
//     matcher visit order), the idle-box list (VisitIdle order), pending
//     and recheck ring buckets, and the availability slab with its
//     intrusive links (entry ids and chain order are behavior).
//   - Derived state is rebuilt on decode (back-pointers, counts, total
//     slots), re-validating invariants instead of trusting two copies.
//   - Volatile round scratch (event logs, assignment logs, candidate
//     buffers) is drained within every Step, so between rounds — the only
//     place a checkpoint may be taken — it is empty and not written.
//
// Generators are external inputs and are NOT part of the checkpoint: the
// caller restarts the demand feed (a daemon's HTTP stream, a test's
// scripted schedule) alongside the restored system.

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"fmt"

	"repro/internal/ckpt"
	"repro/internal/video"
)

// coreStateVersion stamps the engine-state layout. Bump on any change to
// the field order or meaning below; restore refuses other versions.
const coreStateVersion = 3

// Fingerprint hashes the configuration facets the serialized state is
// only meaningful under: population, catalog, allocation contents, engine
// mode flags, and the capacity-shaping parameters. Restoring under a
// different fingerprint is refused — the state would silently diverge.
func (s *System) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(s.n))
	put(uint64(s.cat.M))
	put(uint64(s.cat.C))
	put(uint64(s.cat.T))
	put(uint64(s.cfg.Strategy))
	put(uint64(s.cfg.Failure))
	// Bit 0 (event-driven invalidation) is always set and bits 1 and 3
	// named reference engines that are no longer configurable; the word
	// keeps that layout so every configuration hashes as it always has.
	flags := uint64(1)
	if s.cfg.DisableCacheServing {
		flags |= 4
	}
	put(flags)
	put(math.Float64bits(s.cfg.Mu))
	put(math.Float64bits(s.cfg.UStar))
	for _, u := range s.cfg.Uploads {
		put(math.Float64bits(u))
	}
	for _, r := range s.cfg.Relays {
		put(uint64(int64(r)))
	}
	for st := range s.cfg.Alloc.NumStripes() {
		holders := s.cfg.Alloc.Holders(video.StripeID(st))
		put(uint64(len(holders)))
		for _, b := range holders {
			put(uint64(uint32(b)))
		}
	}
	return h.Sum64()
}

// EncodeState serializes the complete engine state. Checkpoints must be
// taken between Steps (never mid-round); the daemon serializes behind its
// round mutex, and tests checkpoint after a Step returns.
func (s *System) EncodeState(w *ckpt.Writer) error {
	w.U64(coreStateVersion)
	w.U64(s.Fingerprint())
	w.Int(s.round)
	w.Bool(s.failed)

	w.Int(len(s.reqStripe))
	for _, st := range s.reqStripe {
		w.I32(int32(st))
	}
	w.I32s(s.reqStart)
	w.I32s(s.reqBox)
	w.I32s(s.reqViewer)
	w.U64(uint64(len(s.reqBase))) // the I32s layout
	for slot := range s.reqBase {
		w.I32(s.encodedProgress(slot))
	}
	w.Bools(s.reqActive)
	w.I32s(s.freeSlots)
	w.I32s(s.activeList)

	for b := range s.boxes {
		w.I32(s.boxes[b].outstanding)
		w.I32(s.boxes[b].capSlots)
		w.Bool(s.boxes[b].busy)
	}
	w.I32s(s.idleList)

	for _, bucket := range s.pendingRing {
		w.Int(len(bucket))
		for _, iss := range bucket {
			w.Int(iss.round)
			w.I32(int32(iss.stripe))
			w.I32(iss.requester)
			w.I32(iss.viewer)
			w.I32(iss.mirror)
		}
	}

	w.Bool(s.needSweep)
	encodeRing(w, s.recheckRing)

	s.matcher.EncodeState(w)
	s.avail.encodeState(w)
	s.tracker.EncodeState(w)
	s.metrics.encode(w)
	return w.Err()
}

// encodedProgress is slot's progress as the checkpoint has always carried
// it: clock − base for a live slot and T for a retired one, which retired
// the round its progress reached T.
func (s *System) encodedProgress(slot int) int32 {
	if s.reqActive[slot] {
		return s.clock - s.reqBase[slot]
	}
	return int32(s.cat.T)
}

// DecodeState restores state written by EncodeState into a freshly
// constructed System built from the identical Config (same allocation,
// uploads, mode flags — enforced by the fingerprint).
func (s *System) DecodeState(r *ckpt.Reader) error {
	if v := r.U64(); v != coreStateVersion {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("core: checkpoint state version %d, this build reads %d", v, coreStateVersion)
	}
	if fp := r.U64(); fp != s.Fingerprint() {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("core: checkpoint fingerprint %016x does not match configuration %016x",
			fp, s.Fingerprint())
	}
	s.round = r.Int()
	s.failed = r.Bool()

	nSlots := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nSlots < 0 || nSlots > math.MaxInt32 {
		return fmt.Errorf("core: checkpoint slot count %d out of range", nSlots)
	}
	s.reqStripe = ckpt.Records(r, nSlots, func() video.StripeID { return video.StripeID(r.I32()) })
	s.reqStart = r.I32s()
	s.reqBox = r.I32s()
	s.reqViewer = r.I32s()
	progress := r.I32s()
	s.reqActive = r.Bools()
	s.freeSlots = r.I32s()
	s.activeList = r.I32s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(s.reqStart) != nSlots || len(s.reqBox) != nSlots || len(s.reqViewer) != nSlots ||
		len(progress) != nSlots || len(s.reqActive) != nSlots {
		return fmt.Errorf("core: checkpoint slot arrays disagree on length")
	}
	s.clock = int32(s.round) + 1
	if s.failed {
		s.clock--
	}
	T := int32(s.cat.T)
	for slot, p := range progress {
		if live := s.reqActive[slot]; live && (p < 0 || p > T) || !live && p != T {
			return fmt.Errorf("core: checkpoint slot %d (live %v) has progress %d, T is %d", slot, live, p, T)
		}
		progress[slot] = s.clock - p
	}
	s.reqBase = progress
	s.posInActive = make([]int32, nSlots)
	for i := range s.posInActive {
		s.posInActive[i] = -1
	}
	for b := range s.retireRing {
		s.retireRing[b] = nil
	}
	for pos, slot := range s.activeList {
		if slot < 0 || int(slot) >= nSlots || !s.reqActive[slot] || s.posInActive[slot] >= 0 {
			return fmt.Errorf("core: checkpoint live list holds invalid slot %d", slot)
		}
		s.posInActive[slot] = int32(pos)
		s.bucketRetire(slot)
	}
	s.activeReqs = len(s.activeList)

	s.totalSlots = 0
	awaited := int64(0) // every pending issuance is outstanding work of its viewer
	for b := range s.boxes {
		s.boxes[b].outstanding = r.I32()
		s.boxes[b].capSlots = r.I32()
		s.boxes[b].busy = r.Bool()
		s.boxes[b].idlePos = -1
		s.totalSlots += int64(s.boxes[b].capSlots)
		awaited += max(int64(s.boxes[b].outstanding), 0)
	}
	s.idleList = r.I32s()
	s.idleBits.initEmpty(s.n)
	for pos, b := range s.idleList {
		if b < 0 || int(b) >= s.n || s.boxes[b].busy {
			return fmt.Errorf("core: checkpoint idle list holds invalid box %d", b)
		}
		s.boxes[b].idlePos = int32(pos)
		s.idleBits.set(b)
	}

	for i := range s.pendingRing {
		n := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if n < 0 || int64(n) > awaited {
			return fmt.Errorf("core: checkpoint pending bucket length %d exceeds the %d requests the boxes still await", n, awaited)
		}
		awaited -= int64(n)
		s.pendingRing[i] = ckpt.Records(r, n, func() issuance {
			return issuance{
				round:     r.Int(),
				stripe:    video.StripeID(r.I32()),
				requester: r.I32(),
				viewer:    r.I32(),
				mirror:    r.I32(),
			}
		})
	}

	s.needSweep = r.Bool()
	if err := decodeRing(r, s.recheckRing); err != nil {
		return err
	}
	if err := s.matcher.DecodeState(r); err != nil {
		return err
	}
	if err := s.avail.decodeState(r, int32(s.round)); err != nil {
		return err
	}
	if err := s.avail.checkBacking(s.reqStripe, s.reqActive); err != nil {
		return err
	}
	if err := s.tracker.DecodeState(r); err != nil {
		return err
	}
	if err := s.metrics.decode(r, s.round); err != nil {
		return err
	}
	return r.Err()
}

// encodeRing writes a recheck ring (bucket count, then each bucket in
// order).
func encodeRing(w *ckpt.Writer, ring [][]int32) {
	w.Int(len(ring))
	for _, bucket := range ring {
		w.I32s(bucket)
	}
}

// decodeRing restores a ring written by encodeRing in place; the bucket
// count is fixed at construction and must match.
func decodeRing(r *ckpt.Reader, ring [][]int32) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(ring) {
		return fmt.Errorf("core: checkpoint recheck ring has %d buckets, engine has %d", n, len(ring))
	}
	for i := range ring {
		ring[i] = r.I32s()
	}
	return nil
}

// encodeEntry / decodeEntry serialize one playback-cache record.
func encodeEntry(w *ckpt.Writer, e *entry) {
	w.I32(e.box)
	w.I32(e.start)
	w.I32(e.req)
	w.I32(e.lag)
	w.I32(e.frozen)
}

func decodeEntry(r *ckpt.Reader) entry {
	return entry{box: r.I32(), start: r.I32(), req: r.I32(), lag: r.I32(), frozen: r.I32()}
}

// encodeState writes the indexed store raw: the slab with its intrusive
// links (freed slots included — slab ids are behavior: the free-list pop
// order decides id reuse, id order decides list positions, list positions
// decide matcher visit order), the per-stripe heads, the free list and the
// expiry ring buckets in order, and the key index as (key, head id)
// pairs in ascending id order. That order depends on the entries alone —
// not on the index's capacity or the order keys entered it — so two
// checkpoints of one state are the same bytes. The heads are read off the
// slab, not the index: a live entry heads its chain exactly when no live
// entry's nextKey names it.
func (ix *indexedAvailability) encodeState(w *ckpt.Writer) {
	const freed, chained = 1, 2
	flags := make([]uint8, len(ix.slab))
	for _, id := range ix.free {
		flags[id] = freed
	}
	w.Int(len(ix.slab))
	for i := range ix.slab {
		e := &ix.slab[i]
		encodeEntry(w, &e.entry)
		w.I32(int32(e.stripe))
		w.I32(e.next)
		w.I32(e.prev)
		w.I32(e.nextKey)
		if flags[i]&freed == 0 && e.nextKey >= 0 {
			flags[e.nextKey] |= chained
		}
	}
	w.I32s(ix.byStripe)
	w.I32s(ix.liveCount)
	w.Int(len(ix.reqLinks))
	for i := range ix.reqLinks {
		w.I32(ix.reqLinks[i][0])
		w.I32(ix.reqLinks[i][1])
	}
	w.I32s(ix.free)
	w.Int(ix.byKey.live)
	for id := range ix.slab {
		if e := &ix.slab[id]; flags[id] == 0 {
			w.U64(availKey(e.stripe, e.box))
			w.I32(int32(id))
		}
	}
	w.Int(len(ix.ring))
	for _, bucket := range ix.ring {
		w.I32s(bucket)
	}
	w.Int(len(ix.eventLog))
	for _, ev := range ix.eventLog {
		w.I32(int32(ev.stripe))
		w.I32(ev.box)
	}
}

func (ix *indexedAvailability) decodeState(r *ckpt.Reader, round int32) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 || n > math.MaxInt32 {
		return fmt.Errorf("core: checkpoint slab size %d out of range", n)
	}
	ix.slab = ckpt.Records(r, n, func() idxEntry {
		return idxEntry{
			entry:   decodeEntry(r),
			stripe:  video.StripeID(r.I32()),
			next:    r.I32(),
			prev:    r.I32(),
			nextKey: r.I32(),
		}
	})
	byStripe := r.I32s()
	liveCount := r.I32s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(byStripe) != len(ix.byStripe) || len(liveCount) != len(ix.liveCount) {
		return fmt.Errorf("core: checkpoint has %d stripes, store has %d", len(byStripe), len(ix.byStripe))
	}
	ix.byStripe = byStripe
	ix.liveCount = liveCount
	nLinks := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nLinks < 0 || nLinks > math.MaxInt32 {
		return fmt.Errorf("core: checkpoint request-link count %d out of range", nLinks)
	}
	ix.reqLinks = ckpt.Records(r, nLinks, func() [2]int32 { return [2]int32{r.I32(), r.I32()} })
	ix.free = r.I32s()
	if err := r.Err(); err != nil {
		return err
	}
	mark, listed, err := ix.relinkStripes(round)
	if err != nil {
		return err
	}
	nKeys := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	// Every key heads a chain of at least one slab entry, so the slab
	// bounds the count before anything is sized from it.
	if nKeys < 0 || nKeys > len(ix.slab) {
		return fmt.Errorf("core: checkpoint key count %d out of range for %d entries", nKeys, len(ix.slab))
	}
	byKey := newKeyIndex(nKeys)
	for i := 0; i < nKeys; i++ {
		key, id := r.U64(), r.I32()
		if err := r.Err(); err != nil {
			return err
		}
		if id < 0 || int(id) >= len(ix.slab) {
			return fmt.Errorf("core: checkpoint key index holds entry id %d outside the slab", id)
		}
		if mark[id] != slabListed {
			return fmt.Errorf("core: checkpoint key index holds entry %d, which is free", id)
		}
		if e := &ix.slab[id]; availKey(e.stripe, e.box) != key {
			return fmt.Errorf("core: checkpoint key %#x points at entry %d of stripe %d, box %d",
				key, id, e.stripe, e.box)
		}
		if byKey.swap(key, id) >= 0 {
			return fmt.Errorf("core: checkpoint key index repeats key %#x", key)
		}
	}
	ix.byKey = byKey
	nBuckets := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nBuckets != len(ix.ring) {
		return fmt.Errorf("core: checkpoint expiry ring has %d buckets, store has %d", nBuckets, len(ix.ring))
	}
	for b := range ix.ring {
		ix.ring[b] = r.I32s()
	}
	if err := r.Err(); err != nil {
		return err
	}
	if err := ix.checkFiling(mark, listed); err != nil {
		return err
	}
	nEvents := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nEvents < 0 || nEvents > math.MaxInt32 {
		return fmt.Errorf("core: checkpoint event count %d out of range", nEvents)
	}
	ix.eventLog = ckpt.Records(r, nEvents, func() availEvent {
		return availEvent{stripe: video.StripeID(r.I32()), box: r.I32()}
	})
	return r.Err()
}

// Marks of decodeState's pass over the slab.
const (
	slabFreed = 1 + iota
	slabListed
	slabFiled
)

// relinkStripes checks the decoded stripe lists, which every walk and
// every remove trusts, and rebuilds the run links, which the checkpoint
// does not carry. The free list must name distinct slab ids. Each stripe
// list must hold exactly liveCount[st] entries of st, linked both ways, in
// non-increasing issue round no later than the checkpoint's round (add
// refuses an entry issued before the head); and every slab entry must be
// either free or listed. Each entry is marked as the walk reaches it, so a
// cyclic list ends at its first repeat and a hostile list costs O(slab).
// It returns the marks and the number of listed entries for checkFiling.
func (ix *indexedAvailability) relinkStripes(round int32) (mark []uint8, listed int, err error) {
	mark = make([]uint8, len(ix.slab))
	for _, id := range ix.free {
		if id < 0 || int(id) >= len(ix.slab) || mark[id] != 0 {
			return nil, 0, fmt.Errorf("core: checkpoint free list holds entry id %d twice or outside the slab", id)
		}
		mark[id] = slabFreed
	}
	for st, head := range ix.byStripe {
		prev, n := int32(-1), int32(0)
		for id := head; id >= 0; prev, id = id, ix.slab[id].next {
			if int(id) >= len(ix.slab) {
				return nil, 0, fmt.Errorf("core: checkpoint stripe %d list holds entry id %d outside the slab", st, id)
			}
			e := &ix.slab[id]
			switch {
			case mark[id] == slabFreed:
				return nil, 0, fmt.Errorf("core: checkpoint stripe %d list holds entry %d, which is free", st, id)
			case mark[id] == slabListed:
				return nil, 0, fmt.Errorf("core: checkpoint stripe %d list reaches entry %d twice", st, id)
			case int(e.stripe) != st:
				return nil, 0, fmt.Errorf("core: checkpoint stripe %d list holds entry %d of stripe %d", st, id, e.stripe)
			case e.prev != prev:
				return nil, 0, fmt.Errorf("core: checkpoint stripe %d entry %d links back to %d, not %d", st, id, e.prev, prev)
			case e.issued() > round:
				return nil, 0, fmt.Errorf("core: checkpoint stripe %d entry %d issued at round %d, after round %d", st, id, e.issued(), round)
			case prev >= 0 && e.issued() > ix.slab[prev].issued():
				return nil, 0, fmt.Errorf("core: checkpoint stripe %d entry %d issued at round %d follows one issued at %d",
					st, id, e.issued(), ix.slab[prev].issued())
			}
			mark[id] = slabListed
			n++
		}
		if n != ix.liveCount[st] {
			return nil, 0, fmt.Errorf("core: checkpoint stripe %d list holds %d entries, its count says %d", st, n, ix.liveCount[st])
		}
		for id := prev; id >= 0; id = ix.slab[id].prev {
			e := &ix.slab[id]
			e.jump = e.next
			if e.next >= 0 && ix.slab[e.next].issued() == e.issued() {
				e.jump = ix.slab[e.next].jump
			}
		}
		listed += int(n)
	}
	if listed+len(ix.free) != len(ix.slab) {
		return nil, 0, fmt.Errorf("core: checkpoint slab has %d entries, %d listed and %d free", len(ix.slab), listed, len(ix.free))
	}
	return mark, listed, nil
}

// checkFiling checks the two indexes that remove and retire trust: every
// listed entry is filed once, in the expiry bucket of its start, and the
// request links name listed entries backed by their slot, one link per
// request-backed entry.
func (ix *indexedAvailability) checkFiling(mark []uint8, listed int) error {
	filed := 0
	for b, bucket := range ix.ring {
		for _, id := range bucket {
			if id < 0 || int(id) >= len(ix.slab) || mark[id] != slabListed || int(ix.slab[id].start)%len(ix.ring) != b {
				return fmt.Errorf("core: checkpoint expiry bucket %d holds entry %d, which is not a live entry due there", b, id)
			}
			mark[id] = slabFiled
			filed++
		}
	}
	if filed != listed {
		return fmt.Errorf("core: checkpoint files %d of %d live entries for expiry", filed, listed)
	}
	backed, linked := 0, 0
	for id := range ix.slab {
		if mark[id] == slabFiled && ix.slab[id].req >= 0 {
			backed++
		}
	}
	for slot, links := range ix.reqLinks {
		for _, id := range links {
			if id < 0 {
				continue
			}
			if int(id) >= len(ix.slab) || mark[id] != slabFiled || int(ix.slab[id].req) != slot || links[0] == links[1] {
				return fmt.Errorf("core: checkpoint request %d links entry %d, which it does not back", slot, id)
			}
			linked++
		}
	}
	if linked != backed {
		return fmt.Errorf("core: checkpoint links %d of %d request-backed entries", linked, backed)
	}
	return nil
}

// checkBacking checks the decoded store against the decoded slots: every
// request-backed entry must name a live slot of its own stripe, which
// entryChunks reads the progress of and retire freezes it through. By
// checkFiling every such entry is linked from its slot, so the links are
// what is walked.
func (ix *indexedAvailability) checkBacking(reqStripe []video.StripeID, reqActive []bool) error {
	for slot, links := range ix.reqLinks {
		for _, id := range links {
			if id < 0 {
				continue
			}
			if st := ix.slab[id].stripe; slot >= len(reqStripe) || !reqActive[slot] || reqStripe[slot] != st {
				return fmt.Errorf("core: checkpoint entry %d of stripe %d is backed by slot %d, which is no live request of that stripe",
					id, st, slot)
			}
		}
	}
	return nil
}

func (m *runMetrics) encode(w *ckpt.Writer) {
	w.I64(m.demands)
	w.I64(m.admitted)
	w.I64(m.rejectedBusy)
	w.I64(m.rejectedSwarm)
	w.I64(m.stalls)
	w.I64(m.completedViewings)
	w.Int(m.failRound)
	w.Int(m.peakRequests)
	w.Int(len(m.obstructions))
	for _, ob := range m.obstructions {
		w.Int(ob.Round)
		w.Int(ob.Requests)
		w.Int(ob.DistinctStripes)
		w.Int(ob.Boxes)
		w.I64(ob.Slots)
	}
	w.I64s(m.startupHist)
	w.F64(m.utilSum)
	w.I64(m.utilRounds)
	w.Int(m.maxSwarmEver)
	w.Int(len(m.trace))
	for _, rs := range m.trace {
		w.Int(rs.Round)
		w.Int(rs.ActiveReqs)
		w.Int(rs.Matched)
		w.Int(rs.Unmatched)
		w.Int(rs.Viewers)
		w.Int(rs.ActiveSwarm)
		w.Int(rs.MaxSwarm)
		w.F64(rs.Utilization)
	}
	w.I64(m.preloadReqs)
	w.I64(m.postponedReqs)
	w.I64(m.relayedReqs)
	w.I64(m.skippedSelf)
}

// maxStartupWait is the largest intrinsic start-up delay of any strategy
// (a poor box under StrategyRelayed), so a demand admitted in round t has
// waited at most t−1+maxStartupWait rounds.
const maxStartupWait = 6

// decodeStartupHist reads the histogram encode wrote with I64s, growing it
// as counts arrive so that a length the stream does not back allocates
// nothing. What recordStartup guarantees is checked, not trusted: no
// negative count, no delay longer than the clock allows, one count per
// admitted demand.
func decodeStartupHist(r *ckpt.Reader, round int, admitted int64) ([]int64, error) {
	n := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > uint64(max(round, 0))+maxStartupWait {
		return nil, fmt.Errorf("core: checkpoint start-up histogram has %d delays, round %d allows %d",
			n, round, max(round, 0)+maxStartupWait)
	}
	var hist []int64
	total := int64(0)
	for d := uint64(0); d < n; d++ {
		c := r.I64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if c < 0 || c > admitted-total {
			return nil, fmt.Errorf("core: checkpoint start-up histogram counts %d demands at delay %d, %d of %d admitted are unaccounted for",
				c, d, admitted-total, admitted)
		}
		total += c
		hist = append(hist, c)
	}
	if total != admitted {
		return nil, fmt.Errorf("core: checkpoint start-up histogram counts %d demands, %d were admitted", total, admitted)
	}
	return hist, nil
}

func (m *runMetrics) decode(r *ckpt.Reader, round int) error {
	m.demands = r.I64()
	m.admitted = r.I64()
	m.rejectedBusy = r.I64()
	m.rejectedSwarm = r.I64()
	m.stalls = r.I64()
	m.completedViewings = r.I64()
	m.failRound = r.Int()
	m.peakRequests = r.Int()
	nObs := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	// At most one certificate and one trace record per round.
	if nObs < 0 || nObs > max(round, 0) {
		return fmt.Errorf("core: checkpoint has %d obstructions by round %d", nObs, round)
	}
	m.obstructions = ckpt.Records(r, nObs, func() Obstruction {
		return Obstruction{
			Round:           r.Int(),
			Requests:        r.Int(),
			DistinctStripes: r.Int(),
			Boxes:           r.Int(),
			Slots:           r.I64(),
		}
	})
	hist, err := decodeStartupHist(r, round, m.admitted)
	if err != nil {
		return err
	}
	m.startupHist = hist
	m.utilSum = r.F64()
	m.utilRounds = r.I64()
	m.maxSwarmEver = r.Int()
	nTrace := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nTrace < 0 || nTrace > max(round, 0) {
		return fmt.Errorf("core: checkpoint has %d trace records by round %d", nTrace, round)
	}
	m.trace = ckpt.Records(r, nTrace, func() RoundStats {
		return RoundStats{
			Round:       r.Int(),
			ActiveReqs:  r.Int(),
			Matched:     r.Int(),
			Unmatched:   r.Int(),
			Viewers:     r.Int(),
			ActiveSwarm: r.Int(),
			MaxSwarm:    r.Int(),
			Utilization: r.F64(),
		}
	})
	m.preloadReqs = r.I64()
	m.postponedReqs = r.I64()
	m.relayedReqs = r.I64()
	m.skippedSelf = r.I64()
	return r.Err()
}
