package core

// Checkpoint serialization of the full engine state, versioned and pinned
// to the configuration by a fingerprint. The contract is bit-identical
// resumption: a System restored from a checkpoint must produce exactly the
// StepResults, obstruction certificates, and failure rounds of the
// uncheckpointed run (enforced by the round-trip differential in
// checkpoint_test.go). The stream carries each fact the engine observes
// once:
//
//   - Everything whose *order* the engine observes is written verbatim:
//     the live-request list (the matcher's active lefts: retirement and
//     sweep order), the slot free list (its pop order decides which slot,
//     and so which matcher left, a request gets), the idle-box list
//     (VisitIdle order), the pending and recheck ring buckets, the
//     matcher's assignment lists and dirty queue, and each stripe's cache
//     entry list (walk order, and so matcher visit order).
//   - Everything else is rebuilt on decode through the paths a running
//     engine builds it with: the store's slab, box chains, slot links
//     and expiry ring by replaying the entry lists through add; the
//     matcher's loads and back-pointers; the retire ring from progress;
//     the idle positions and bitmap; the slot total from the matcher's
//     capacities. A box's record carries only its outstanding count: it
//     is busy exactly while that is positive, and its capacity is its
//     matcher right's. Slab ids, the slab free list, box chain order and
//     expiry bucket order decide no result, so they are not written, and
//     two checkpoints of one state are the same bytes.
//   - Some fields that memory derives are written all the same, so that
//     state version 4's layout stands: each pending issuance's round and
//     mirror, and each cache entry's start, lag and backing slot or
//     frozen progress, which memory packs into two words. Decode refuses
//     a value the derivation or the packing cannot hold.
//   - Volatile round scratch (event logs, candidate buffers) is drained
//     within every Step, so between rounds — the only place a checkpoint
//     may be taken — it is empty and not written.
//
// Each decoder checks what it reads as far as its own section can tell;
// Restore then runs audit (audit.go), which checks the sections
// against each other, so a stream no engine writes is refused with an
// error instead of loading or panicking a later Step.
//
// Generators are external inputs and are NOT part of the checkpoint: the
// caller restarts the demand feed (a daemon's HTTP stream, a test's
// scripted schedule) alongside the restored system.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/video"
)

// coreStateVersion stamps the engine-state layout. Bump on any change to
// the field order or meaning below; restore refuses other versions.
const coreStateVersion = 4

// Fingerprint hashes the configuration facets the serialized state is
// only meaningful under: population, catalog, allocation contents, engine
// mode flags, and the capacity-shaping parameters. Restoring under a
// different fingerprint is refused — the state would silently diverge.
// The configuration does not change after NewSystem (see Config), so the
// hash is computed on the first call and cached.
func (s *System) Fingerprint() uint64 {
	if !s.fingerprinted {
		s.fingerprint, s.fingerprinted = hashConfig(&s.cfg), true
	}
	return s.fingerprint
}

// FNV-1a, 64-bit: the parameters of hash/fnv's New64a.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPow[z] is fnvPrime64^z mod 2⁶⁴. A zero byte XORs nothing in, so
// hashing z of them in a row is one multiply by fnvPow[z].
var fnvPow = func() (pow [9]uint64) {
	pow[0] = 1
	for z := 1; z < len(pow); z++ {
		pow[z] = pow[z-1] * fnvPrime64
	}
	return pow
}()

// fnvWord hashes v's eight little-endian bytes into h: the zero bytes
// below its lowest nonzero byte in one multiply, the bytes up to its
// highest nonzero byte one at a time, and the zero bytes above in one
// multiply (an upload of 2.0 is seven zero bytes and 0x40).
func fnvWord(h, v uint64) uint64 {
	hi := (bits.Len64(v) + 7) / 8
	lo := min(bits.TrailingZeros64(v)/8, hi)
	h *= fnvPow[lo]
	for v >>= 8 * lo; lo < hi; lo++ {
		h = (h ^ v&0xff) * fnvPrime64
		v >>= 8
	}
	return h * fnvPow[8-hi]
}

// fnvHolder hashes a holder's word, uint64(uint32(b)), into h: its three
// low bytes one at a time, then its fourth byte with the four zero bytes
// above it, whose five multiplies are one by fnvPrime64⁵. It is fnvWord
// without the branch on b's length, which varies from holder to holder.
func fnvHolder(h uint64, b uint32) uint64 {
	h = (h ^ uint64(b&0xff)) * fnvPrime64
	h = (h ^ uint64(b>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(b>>16&0xff)) * fnvPrime64
	return (h ^ uint64(b>>24)) * fnvPow[5]
}

// hashConfig is the FNV-1a-64 hash of the configuration words, each
// written as eight little-endian bytes, in the order below.
func hashConfig(cfg *Config) uint64 {
	cat := cfg.Alloc.Catalog()
	h := uint64(fnvOffset64)
	h = fnvWord(h, uint64(cfg.Alloc.NumBoxes()))
	h = fnvWord(h, uint64(cat.M))
	h = fnvWord(h, uint64(cat.C))
	h = fnvWord(h, uint64(cat.T))
	h = fnvWord(h, uint64(cfg.Strategy))
	h = fnvWord(h, uint64(cfg.Failure))
	// Bit 0 (event-driven invalidation) is always set and bits 1 and 3
	// named reference engines that are no longer configurable; the word
	// keeps that layout so every configuration hashes as it always has.
	flags := uint64(1)
	if cfg.DisableCacheServing {
		flags |= 4
	}
	h = fnvWord(h, flags)
	h = fnvWord(h, math.Float64bits(cfg.Mu))
	h = fnvWord(h, math.Float64bits(cfg.UStar))
	for _, u := range cfg.Uploads {
		h = fnvWord(h, math.Float64bits(u))
	}
	for _, r := range cfg.Relays {
		h = fnvWord(h, uint64(int64(r)))
	}
	for st := range cfg.Alloc.NumStripes() {
		holders := cfg.Alloc.Holders(video.StripeID(st))
		h = fnvWord(h, uint64(len(holders)))
		for _, b := range holders {
			h = fnvHolder(h, uint32(b))
		}
	}
	return h
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
	w.I32s(s.freeSlots)

	for b := range s.boxes {
		w.I32(s.boxes[b].outstanding)
	}
	w.I32s(s.idleList)

	for b, bucket := range s.pendingRing {
		w.Int(len(bucket))
		for _, iss := range bucket {
			w.Int(s.pendingRound(b)) // derived, as is the mirror (see issuance)
			w.I32(int32(iss.stripe))
			w.I32(iss.requester)
			w.I32(iss.viewer)
			w.I32(iss.mirror())
		}
	}

	w.Bool(s.needSweep)
	for _, bucket := range s.recheckRing {
		w.I32s(bucket)
	}

	s.matcher.EncodeState(w)
	s.avail.encodeState(w)
	s.tracker.EncodeState(w)
	s.metrics.encode(w)
	return w.Err()
}

// encodedProgress is slot's progress as the checkpoint carries it: clock −
// base for a live slot and T for a retired one, which retired the round its
// progress reached T.
func (s *System) encodedProgress(slot int) int32 {
	if s.matcher.Active(slot) {
		return s.clock - s.reqBase[slot]
	}
	return int32(s.cat.T)
}

// maxRound bounds a checkpoint's round so that every round-derived int32
// (the clock, entry starts, issuance rounds) stays in range.
const maxRound = math.MaxInt32 / 2

// StateHead is the opening of a state stream, which needs no System to
// decode: the version and fingerprint, the round, the request slot arrays
// and each box's outstanding count.
type StateHead struct {
	fingerprint uint64
	round       int
	failed      bool
	reqStripe   []video.StripeID
	reqStart    []int32
	reqBox      []int32
	reqViewer   []int32
	progress    []int32
	freeSlots   []int32
	outstanding []int32
}

// ReadStateHead reads a state stream of n boxes up to its last
// outstanding count. What it holds grows with the values read, so a
// stream too short for its counts — or for n boxes — fails here having
// allocated in proportion to its bytes: a loader that builds the System
// only after the head has read spends nothing n-sized on it.
func ReadStateHead(r *ckpt.Reader, n int) (*StateHead, error) {
	if v := r.U64(); v != coreStateVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: checkpoint state version %d, this build reads %d", v, coreStateVersion)
	}
	h := &StateHead{fingerprint: r.U64(), round: r.Int(), failed: r.Bool()}
	nSlots := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if h.round < 0 || h.round > maxRound {
		return nil, fmt.Errorf("core: checkpoint round %d out of range", h.round)
	}
	if nSlots < 0 || nSlots > maxPacked {
		return nil, fmt.Errorf("core: checkpoint slot count %d out of range", nSlots)
	}
	h.reqStripe = ckpt.Records(r, nSlots, func() video.StripeID { return video.StripeID(r.I32()) })
	h.reqStart = r.I32s()
	h.reqBox = r.I32s()
	h.reqViewer = r.I32s()
	h.progress = r.I32s()
	h.freeSlots = r.I32s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(h.reqStart) != nSlots || len(h.reqBox) != nSlots || len(h.reqViewer) != nSlots ||
		len(h.progress) != nSlots {
		return nil, fmt.Errorf("core: checkpoint slot arrays disagree on length")
	}
	h.outstanding = ckpt.Records(r, n, r.I32)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return h, nil
}

// Restore builds a System from cfg, as NewSystem does, restores head and
// the rest of its stream, state written by EncodeState under the same
// configuration (same allocation, uploads and mode flags, enforced by the
// fingerprint), into it, and audits the result.
//
// cfg's allocation need not be filled yet: fill, when not nil, completes
// it on a second goroutine, which then hashes the configuration, while
// this one builds the System and decodes the stream. Neither reads the
// allocation's holders. The stored fingerprint is compared once both are
// done, and a mismatch is reported before any error of the stream's,
// which a stream saved under another configuration may well have. The
// audit, which reads the holders, runs last. Every return waits for the
// goroutine, so none outlives the call.
func Restore(cfg Config, head *StateHead, r *ckpt.Reader, fill func()) (*System, error) {
	if cfg.Alloc == nil {
		return nil, fmt.Errorf("core: config needs an allocation")
	}
	done := make(chan uint64, 1) // the goroutine never blocks, even if this one panics
	go func() {
		if fill != nil {
			fill()
		}
		done <- hashConfig(&cfg)
	}()
	s, err := NewSystem(cfg)
	if err == nil {
		err = s.decodeBody(head, r)
	}
	fp := <-done
	switch {
	case s == nil:
		return nil, err
	case fp != head.fingerprint:
		return nil, fmt.Errorf("core: checkpoint fingerprint %016x does not match configuration %016x",
			head.fingerprint, fp)
	case err != nil:
		return nil, err
	}
	s.fingerprint, s.fingerprinted = fp, true
	if err := s.audit(); err != nil {
		return nil, fmt.Errorf("core: checkpoint refused: %w", err)
	}
	return s, nil
}

// decodeBody restores head, whose arrays s takes over, and the stream
// after it into s. It reads nothing of the allocation but its shape.
func (s *System) decodeBody(head *StateHead, r *ckpt.Reader) error {
	if len(head.outstanding) != s.n {
		return fmt.Errorf("core: checkpoint head read for %d boxes, the system has %d", len(head.outstanding), s.n)
	}
	s.round, s.failed = head.round, head.failed
	s.reqStripe, s.reqStart, s.reqBox, s.reqViewer = head.reqStripe, head.reqStart, head.reqBox, head.reqViewer
	s.freeSlots = head.freeSlots
	nSlots := len(s.reqStripe)
	s.clock = int32(s.round) + 1
	if s.failed {
		s.clock--
	}

	awaited := int64(0) // every pending issuance is outstanding work of its viewer
	for b, o := range head.outstanding {
		s.boxes[b] = boxRec{outstanding: o, idlePos: -1}
		awaited += max(int64(o), 0)
	}
	s.idleList = r.AppendI32s(s.idleList[:0]) // NewSystem sized it for every box
	s.idleBits.initEmpty(s.n)
	for pos, b := range s.idleList {
		if b < 0 || int(b) >= s.n {
			return fmt.Errorf("core: checkpoint idle list holds box %d, the system has %d", b, s.n)
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
		due := s.pendingRound(i)
		var bad error
		s.pendingRing[i] = ckpt.Records(r, n, func() issuance {
			round, iss := r.Int(), issuance{stripe: video.StripeID(r.I32()), requester: r.I32(), viewer: r.I32()}
			switch mirror := r.I32(); {
			case bad != nil:
			case round != due:
				bad = fmt.Errorf("core: checkpoint pending bucket %d holds an issuance for round %d at round %d", i, round, s.round)
			case mirror != iss.mirror():
				bad = fmt.Errorf("core: checkpoint pending issuance of requester %d and viewer %d names mirror %d",
					iss.requester, iss.viewer, mirror)
			}
			return iss
		})
		if err := r.Err(); err != nil {
			return err
		}
		if bad != nil {
			return bad
		}
	}

	s.needSweep = r.Bool()
	for i := range s.recheckRing {
		s.recheckRing[i] = r.I32s()
	}
	if err := s.matcher.DecodeState(r, nSlots); err != nil {
		return err
	}
	s.totalSlots = 0
	for b := range s.boxes {
		s.totalSlots += s.matcher.Capacity(b)
	}
	T := int32(s.cat.T)
	progress := head.progress
	for slot, p := range progress {
		if live := s.matcher.Active(slot); live && (p < 0 || p > T) || !live && p != T {
			return fmt.Errorf("core: checkpoint slot %d (live %v) has progress %d, T is %d", slot, live, p, T)
		}
		progress[slot] = s.clock - p
	}
	s.reqBase = progress
	for _, slot := range s.matcher.ActiveLefts() {
		s.bucketRetire(slot)
	}

	if err := s.avail.decodeState(r, nSlots); err != nil {
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

// encodeState writes the store as its per-stripe entry lists: for each
// stripe its entry count, then its entries oldest first, each as box,
// start, lag and the backing slot, or −1 and the frozen progress. The
// order of a list is behaviour (visitStep walks it newest first); the rest
// of the store is bookkeeping decodeState rebuilds.
func (ix *indexedAvailability) encodeState(w *ckpt.Writer) {
	for _, head := range ix.byStripe {
		n, oldest := 0, head
		for id := head; id >= 0; id = ix.slab[id].next {
			n, oldest = n+1, id
		}
		w.Int(n)
		for id := oldest; id >= 0; id = ix.slab[id].prev {
			e := &ix.slab[id]
			w.I32(e.box)
			w.I32(e.start())
			w.I32(e.lag())
			w.I32(e.req())
			if e.tag < 0 {
				w.I32(e.frozen())
			}
		}
	}
}

// decodeState replays the lists encodeState wrote into a freshly built
// store through add, oldest first, so the slab, box chains, slot links and
// expiry ring are the ones add builds; the slab and the slot links are
// sized first, from the entries read and the checkpoint's slot count. add
// trusts its caller that an entry's box is one of the system's (it indexes
// the box chains by it), that a start is not negative (it files the entry
// under start mod the ring length) and that a list's issue rounds never
// decrease from oldest to newest, and an entry packs only a lag of 0 or 1,
// a slot id below its checkpoint's count and a frozen progress in [0, T]:
// all of these are checked here, before any entry is added. Whether the
// entries agree with the slots and the clock is the audit's to check.
func (ix *indexedAvailability) decodeState(r *ckpt.Reader, slots int) error {
	type listed struct {
		st video.StripeID
		e  entry
	}
	var read []listed
	for st := range ix.byStripe {
		n := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("core: checkpoint stripe %d entry count %d out of range", st, n)
		}
		for i := 0; i < n; i++ {
			box, start, lag, req := r.I32(), r.I32(), r.I32(), r.I32()
			frozen := int32(0)
			if req < 0 {
				frozen = r.I32()
			}
			if err := r.Err(); err != nil {
				return err
			}
			switch {
			case box < 0 || int(box) >= len(ix.byBox):
				return fmt.Errorf("core: checkpoint stripe %d entry names box %d, the system has %d", st, box, len(ix.byBox))
			case start < 0:
				return fmt.Errorf("core: checkpoint stripe %d entry starts at round %d", st, start)
			case lag < 0 || lag > 1:
				return fmt.Errorf("core: checkpoint stripe %d entry names box %d with lag %d", st, box, lag)
			case req < -1 || int(req) >= slots:
				return fmt.Errorf("core: checkpoint stripe %d entry names slot %d, the checkpoint has %d", st, req, slots)
			case req < 0 && (frozen < 0 || int(frozen) > ix.T):
				return fmt.Errorf("core: checkpoint stripe %d entry of box %d froze at progress %d, T is %d", st, box, frozen, ix.T)
			}
			e := liveEntry(box, start-lag, max(req, 0), lag)
			if req < 0 {
				e.freeze(frozen + lag)
			}
			if prev := len(read) - 1; i > 0 && e.issued < read[prev].e.issued {
				return fmt.Errorf("core: checkpoint stripe %d entry issued at round %d follows one issued at %d",
					st, e.issued, read[prev].e.issued)
			}
			read = append(read, listed{video.StripeID(st), e})
		}
	}
	ix.slab = make([]idxEntry, 0, len(read))
	ix.bySlot = slices.Repeat([]int32{-1}, 2*slots)
	for _, l := range read {
		ix.add(l.st, l.e)
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
