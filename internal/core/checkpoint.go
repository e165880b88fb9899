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
	for _, holders := range s.cfg.Alloc.ByStripe {
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
	w.I32s(s.reqProgress)
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
	s.reqStripe = make([]video.StripeID, nSlots)
	for i := range s.reqStripe {
		s.reqStripe[i] = video.StripeID(r.I32())
	}
	s.reqStart = r.I32s()
	s.reqBox = r.I32s()
	s.reqViewer = r.I32s()
	s.reqProgress = r.I32s()
	s.reqActive = r.Bools()
	s.freeSlots = r.I32s()
	s.activeList = r.I32s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(s.reqStart) != nSlots || len(s.reqBox) != nSlots || len(s.reqViewer) != nSlots ||
		len(s.reqProgress) != nSlots || len(s.reqActive) != nSlots {
		return fmt.Errorf("core: checkpoint slot arrays disagree on length")
	}
	s.posInActive = make([]int32, nSlots)
	for i := range s.posInActive {
		s.posInActive[i] = -1
	}
	for pos, slot := range s.activeList {
		if slot < 0 || int(slot) >= nSlots || !s.reqActive[slot] {
			return fmt.Errorf("core: checkpoint live list holds invalid slot %d", slot)
		}
		s.posInActive[slot] = int32(pos)
	}
	s.activeReqs = len(s.activeList)

	s.totalSlots = 0
	for b := range s.boxes {
		s.boxes[b].outstanding = r.I32()
		s.boxes[b].capSlots = r.I32()
		s.boxes[b].busy = r.Bool()
		s.boxes[b].idlePos = -1
		s.totalSlots += int64(s.boxes[b].capSlots)
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
		if n < 0 || n > math.MaxInt32 {
			return fmt.Errorf("core: checkpoint pending bucket length %d out of range", n)
		}
		bucket := make([]issuance, n)
		for j := range bucket {
			bucket[j] = issuance{
				round:     r.Int(),
				stripe:    video.StripeID(r.I32()),
				requester: r.I32(),
				viewer:    r.I32(),
				mirror:    r.I32(),
			}
		}
		s.pendingRing[i] = bucket
	}

	s.needSweep = r.Bool()
	if err := decodeRing(r, s.recheckRing); err != nil {
		return err
	}
	if err := s.matcher.DecodeState(r); err != nil {
		return err
	}
	if err := s.avail.decodeState(r); err != nil {
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

func (ix *indexedAvailability) decodeState(r *ckpt.Reader) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 || n > math.MaxInt32 {
		return fmt.Errorf("core: checkpoint slab size %d out of range", n)
	}
	ix.slab = make([]idxEntry, n)
	for i := range ix.slab {
		ix.slab[i] = idxEntry{
			entry:   decodeEntry(r),
			stripe:  video.StripeID(r.I32()),
			next:    r.I32(),
			prev:    r.I32(),
			nextKey: r.I32(),
		}
	}
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
	ix.reqLinks = make([][2]int32, nLinks)
	for i := range ix.reqLinks {
		ix.reqLinks[i] = [2]int32{r.I32(), r.I32()}
	}
	ix.free = r.I32s()
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
	nEvents := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nEvents < 0 || nEvents > math.MaxInt32 {
		return fmt.Errorf("core: checkpoint event count %d out of range", nEvents)
	}
	ix.eventLog = make([]availEvent, nEvents)
	for i := range ix.eventLog {
		ix.eventLog[i] = availEvent{stripe: video.StripeID(r.I32()), box: r.I32()}
	}
	return r.Err()
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
	if nObs < 0 || nObs > math.MaxInt32 {
		return fmt.Errorf("core: checkpoint obstruction count %d out of range", nObs)
	}
	m.obstructions = make([]Obstruction, nObs)
	for i := range m.obstructions {
		m.obstructions[i] = Obstruction{
			Round:           r.Int(),
			Requests:        r.Int(),
			DistinctStripes: r.Int(),
			Boxes:           r.Int(),
			Slots:           r.I64(),
		}
	}
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
	if nTrace < 0 || nTrace > math.MaxInt32 {
		return fmt.Errorf("core: checkpoint trace length %d out of range", nTrace)
	}
	m.trace = make([]RoundStats, nTrace)
	for i := range m.trace {
		m.trace[i] = RoundStats{
			Round:       r.Int(),
			ActiveReqs:  r.Int(),
			Matched:     r.Int(),
			Unmatched:   r.Int(),
			Viewers:     r.Int(),
			ActiveSwarm: r.Int(),
			MaxSwarm:    r.Int(),
			Utilization: r.F64(),
		}
	}
	m.preloadReqs = r.I64()
	m.postponedReqs = r.I64()
	m.relayedReqs = r.I64()
	m.skippedSelf = r.I64()
	return r.Err()
}
