package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/stats"
	"repro/internal/video"
)

// recordingGen wraps a generator and records every emitted demand batch so
// the restored system can replay the exact same external inputs. This is
// the checkpoint contract: generators are NOT serialized — the demand feed
// is an input the operator restarts alongside the restored state.
type recordingGen struct {
	inner   Generator
	byRound map[int][]Demand
}

func (g *recordingGen) Next(v *View, round int) []Demand {
	ds := g.inner.Next(v, round)
	g.byRound[round] = append([]Demand(nil), ds...)
	return ds
}

// checkpointChurn applies the same deterministic capacity flips the
// lockstep differentials use: every few rounds one box loses most of its
// upload and a previously squeezed box recovers, forcing evictions, dirty
// windows, and stall episodes around the checkpoint boundary.
func checkpointChurn(t *testing.T, sys *System, r int, origCap int64) {
	t.Helper()
	n := sys.NumBoxes()
	if r%5 == 0 {
		if err := sys.SetCapacity((r*7)%n, 1); err != nil {
			t.Fatal(err)
		}
	}
	if r%5 == 2 && r >= 5 {
		if err := sys.SetCapacity(((r-2)*7)%n, origCap); err != nil {
			t.Fatal(err)
		}
	}
}

// progressTable is every slot's progress as the checkpoint carries it.
func progressTable(s *System) []int32 {
	table := make([]int32, len(s.reqBase))
	for slot := range table {
		table[slot] = s.encodedProgress(slot)
	}
	return table
}

// TestCheckpointRoundTripBitIdentical is the tentpole differential:
// serialize at a seeded random mid-run round — under admission,
// retirement, capacity-change, and stall churn — restore into a fresh
// process-equivalent System, and demand that the next 50 rounds are
// bit-identical to the uncheckpointed continuation: StepResults with
// their obstruction certificates, per-slot progress, busy sets, and the
// final aggregate reports. Paranoid mode cross-checks matcher invariants
// on the restored state every round.
func TestCheckpointRoundTripBitIdentical(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		mk := func() *System {
			return buildHomogeneous(t, 43, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) {
				cfg.Failure = FailStall
			})
		}
		live := mk()
		origCap := live.View().UploadSlots(0)
		rec := &recordingGen{
			inner:   &uniformGen{rng: stats.NewRNG(1213), p: 0.8},
			byRound: map[int][]Demand{},
		}
		ckptRound := 30 + stats.NewRNG(82).Intn(40)
		for r := 1; r <= ckptRound; r++ {
			checkpointChurn(t, live, r, origCap)
			if _, err := live.Step(rec); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}

		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		if err := live.EncodeState(w); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		// Uncheckpointed continuation: 50 more rounds on the live
		// system, snapshotting per-round slot progress and busy sets so
		// the replay below can be compared round by round (not just
		// against final state).
		const tail = 50
		wantResults := make([]StepResult, 0, tail)
		wantProgress := make([][]int32, 0, tail)
		wantBusy := make([][]bool, 0, tail)
		stallRounds := 0
		for r := ckptRound + 1; r <= ckptRound+tail; r++ {
			checkpointChurn(t, live, r, origCap)
			res, err := live.Step(rec)
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			wantResults = append(wantResults, res)
			wantProgress = append(wantProgress, progressTable(live))
			busy := make([]bool, live.NumBoxes())
			for b := range busy {
				busy[b] = live.boxes[b].busy
			}
			wantBusy = append(wantBusy, busy)
			if res.Unmatched > 0 {
				stallRounds++
			}
		}
		if stallRounds == 0 {
			t.Fatal("continuation never stalled: the hard half of the differential is untested")
		}

		// Restore into a fresh process-equivalent system and replay the
		// exact recorded demand schedule.
		restored := mk()
		if err := restored.DecodeState(ckpt.NewReader(bytes.NewReader(buf.Bytes()))); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if restored.Round() != ckptRound {
			t.Fatalf("restored at round %d, checkpointed at %d", restored.Round(), ckptRound)
		}
		replay := &scripted{byRound: rec.byRound}
		for i, r := 0, ckptRound+1; r <= ckptRound+tail; i, r = i+1, r+1 {
			checkpointChurn(t, restored, r, origCap)
			res, err := restored.Step(replay)
			if err != nil {
				t.Fatalf("restored round %d: %v", r, err)
			}
			if !reflect.DeepEqual(res, wantResults[i]) {
				t.Fatalf("round %d diverged after restore\nlive:     %+v\nrestored: %+v",
					r, wantResults[i], res)
			}
			if len(restored.reqBase) != len(wantProgress[i]) {
				t.Fatalf("round %d: slot table grew to %d slots, live had %d",
					r, len(restored.reqBase), len(wantProgress[i]))
			}
			for slot, want := range wantProgress[i] {
				if restored.encodedProgress(slot) != want {
					t.Fatalf("round %d: progress of slot %d diverges: %d vs %d",
						r, slot, want, restored.encodedProgress(slot))
				}
			}
			for b, want := range wantBusy[i] {
				if restored.boxes[b].busy != want {
					t.Fatalf("round %d: busy state of box %d diverges", r, b)
				}
			}
		}
		if repA, repB := live.Report(), restored.Report(); !reflect.DeepEqual(repA, repB) {
			t.Fatalf("final reports diverge\nlive:     %+v\nrestored: %+v", repA, repB)
		}
	})
}

// TestCheckpointRejectsMismatch pins the safety rails: a checkpoint must
// not decode into a system with a different configuration (fingerprint)
// or from a truncated stream.
func TestCheckpointRejectsMismatch(t *testing.T) {
	mk := func(seed uint64) *System {
		return buildHomogeneous(t, seed, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) {
			cfg.Failure = FailStall
		})
	}
	src := mk(43)
	gen := &uniformGen{rng: stats.NewRNG(7), p: 0.5}
	for r := 0; r < 10; r++ {
		if _, err := src.Step(gen); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	if err := src.EncodeState(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	if err := mk(99).DecodeState(ckpt.NewReader(bytes.NewReader(buf.Bytes()))); err == nil {
		t.Fatal("different allocation accepted")
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if err := mk(43).DecodeState(ckpt.NewReader(bytes.NewReader(trunc))); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestCheckpointFreshSystem covers the trivial boundary: a system that has
// never stepped round-trips and then runs normally.
func TestCheckpointFreshSystem(t *testing.T) {
	mk := func() *System {
		return buildHomogeneous(t, 5, 12, 1, 2, 6, 2, 1.5, 1.2, nil)
	}
	src := mk()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	if err := src.EncodeState(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	dst := mk()
	if err := dst.DecodeState(ckpt.NewReader(bytes.NewReader(buf.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if dst.Round() != 0 {
		t.Fatalf("fresh restore at round %d", dst.Round())
	}
	gen := &uniformGen{rng: stats.NewRNG(3), p: 0.5}
	for r := 0; r < 20; r++ {
		if _, err := dst.Step(gen); err != nil {
			t.Fatalf("round %d after fresh restore: %v", r, err)
		}
	}
}

// storeStream is an indexed-store checkpoint held field by field, so a
// test can put any count or pair in the key-index section. bytes writes
// encodeState's layout by hand; TestStoreDecodeRejectsCorruptKeyIndex holds
// the two against each other on the honest stream.
type storeStream struct {
	ix     *indexedAvailability // everything but the key index is written from here
	nKeys  int                  // the count field
	keys   []uint64             // the key of each pair
	keyIDs []int32              // the id of each pair
}

// streamOf reads a store's key index the way encodeState defines it: the
// heads of all chains in ascending entry id.
func streamOf(ix *indexedAvailability) storeStream {
	ss := storeStream{ix: ix}
	isHead := make([]bool, len(ix.slab))
	for _, id := range ix.byStripe {
		for ; id >= 0; id = ix.slab[id].next {
			isHead[id] = true
		}
	}
	for id := range ix.slab {
		if next := ix.slab[id].nextKey; next >= 0 {
			isHead[next] = false
		}
	}
	for id, head := range isHead {
		if head {
			e := &ix.slab[id]
			ss.keys = append(ss.keys, availKey(e.stripe, e.box))
			ss.keyIDs = append(ss.keyIDs, int32(id))
			ss.nKeys++
		}
	}
	return ss
}

func (ss storeStream) bytes() []byte {
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	ix := ss.ix
	w.Int(len(ix.slab))
	for i := range ix.slab {
		e := &ix.slab[i]
		encodeEntry(w, &e.entry)
		w.I32(int32(e.stripe))
		w.I32(e.next)
		w.I32(e.prev)
		w.I32(e.nextKey)
	}
	w.I32s(ix.byStripe)
	w.I32s(ix.liveCount)
	w.Int(len(ix.reqLinks))
	for _, links := range ix.reqLinks {
		w.I32(links[0])
		w.I32(links[1])
	}
	w.I32s(ix.free)
	w.Int(ss.nKeys)
	for i, key := range ss.keys {
		w.U64(key)
		w.I32(ss.keyIDs[i])
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
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestStoreDecodeRejectsCorruptKeyIndex feeds decodeState key-index
// sections no encoder writes. Each must come back as an error — not a
// panic, not a table sized from the stream's own count — because the index
// is trusted afterwards: add, remove and every lookup walk from it.
func TestStoreDecodeRejectsCorruptKeyIndex(t *testing.T) {
	const numStripes, T = 6, 5
	build := func() *indexedAvailability {
		ix := newIndexedAvailability(numStripes, T)
		rng := stats.NewRNG(77)
		for round := 1; round <= 12; round++ {
			ix.expire(round)
			for i := 0; i < 5; i++ {
				st := video.StripeID(rng.Intn(numStripes))
				ix.add(st, entry{box: int32(rng.Intn(4)), start: int32(round), req: -1, frozen: int32(T)})
			}
		}
		ix.expire(13) // nothing added after it: the slots it frees stay free
		return ix
	}
	honest := streamOf(build())
	var production bytes.Buffer
	w := ckpt.NewWriter(&production)
	honest.ix.encodeState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(production.Bytes(), honest.bytes()) {
		t.Fatal("encodeState does not write the key index as chain heads in ascending id (or the layout moved)")
	}
	fresh := func() *indexedAvailability { return newIndexedAvailability(numStripes, T) }
	if err := fresh().decodeState(ckpt.NewReader(bytes.NewReader(honest.bytes())), 13); err != nil {
		t.Fatalf("honest stream rejected: %v", err)
	}
	if len(honest.keys) < 2 || len(honest.ix.free) == 0 {
		t.Fatal("scenario too small: need two keys and a freed slab slot")
	}

	for _, tc := range []struct {
		name    string
		corrupt func(ss *storeStream)
		want    string
	}{
		{"count asks for 2^31 slots", func(ss *storeStream) { ss.nKeys = math.MaxInt32 }, "key count 2147483647 out of range"},
		{"count one past the slab", func(ss *storeStream) { ss.nKeys = len(ss.ix.slab) + 1 }, "out of range"},
		{"negative count", func(ss *storeStream) { ss.nKeys = -1 }, "out of range"},
		{"negative id", func(ss *storeStream) { ss.keyIDs[0] = -1 }, "outside the slab"},
		{"id past the slab", func(ss *storeStream) { ss.keyIDs[1] = int32(len(ss.ix.slab)) }, "outside the slab"},
		{"id of another key's entry", func(ss *storeStream) { ss.keyIDs[0] = ss.keyIDs[1] }, "points at entry"},
		{"key twice", func(ss *storeStream) {
			ss.keys[1], ss.keyIDs[1] = ss.keys[0], ss.keyIDs[0]
		}, "repeats key"},
		{"id of a free entry", func(ss *storeStream) {
			id := ss.ix.free[0]
			ss.keys[0], ss.keyIDs[0] = availKey(ss.ix.slab[id].stripe, ss.ix.slab[id].box), id
		}, "which is free"},
	} {
		ss := streamOf(build())
		tc.corrupt(&ss)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fresh().decodeState(ckpt.NewReader(bytes.NewReader(ss.bytes())), 13)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decodeState returned %v, want an error naming %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decodeState allocated %d bytes on a %d-byte stream", tc.name, grew, len(ss.bytes()))
		}
	}
}

// TestStoreDecodeRejectsMalformedLists feeds decodeState stripe lists,
// expiry buckets and request links no encoder writes. Walks, remove and
// retire trust all three, and a cyclic list used to decode and then hang
// the next Step, so each must come back as an error — not a hang, not a
// panic — having allocated less than 1 MB. The honest stream decodes to
// the same slab, run links included.
func TestStoreDecodeRejectsMalformedLists(t *testing.T) {
	const numStripes, T = 3, 5
	build := func() *indexedAvailability {
		ix := newIndexedAvailability(numStripes, T)
		rng := stats.NewRNG(78)
		var live []diffReq
		slot := int32(0)
		for round := 1; round <= 12; round++ {
			ix.expire(round)
			for i := 0; i < 4; i++ {
				st := video.StripeID(rng.Intn(numStripes))
				ix.add(st, entry{box: int32(rng.Intn(4)), start: int32(round), req: slot})
				if rng.Bool(0.5) {
					ix.add(st, entry{box: int32(rng.Intn(4)), start: int32(round + 1), req: slot, lag: 1})
				}
				live = append(live, diffReq{slot: slot, stripe: st, live: true})
				slot++
			}
			for i := range live {
				if r := &live[i]; r.live && rng.Bool(0.3) {
					ix.retire(r.stripe, r.slot, 2)
					r.live = false
				}
			}
		}
		ix.expire(13) // nothing added after it: the slots it frees stay free
		return ix
	}
	honest := build()
	fresh := func() *indexedAvailability { return newIndexedAvailability(numStripes, T) }
	decoded := fresh()
	if err := decoded.decodeState(ckpt.NewReader(bytes.NewReader(streamOf(honest).bytes())), 13); err != nil {
		t.Fatalf("honest stream rejected: %v", err)
	}
	if !reflect.DeepEqual(decoded.slab, honest.slab) {
		t.Fatal("decoded slab differs from the encoded one: the run links were not rebuilt as add and remove keep them")
	}
	// st0's list has two runs; its second entry opens neither.
	st0, backed, frozen := video.StripeID(-1), int32(-1), int32(-1)
	for st, head := range honest.byStripe {
		if head >= 0 && honest.slab[head].jump >= 0 && honest.slab[head].next != honest.slab[head].jump {
			st0 = video.StripeID(st)
		}
	}
	for id := range honest.slab {
		switch e := &honest.slab[id]; {
		case slices.Contains(honest.free, int32(id)):
		case e.req >= 0:
			backed = int32(id)
		case e.lag == 0:
			frozen = int32(id)
		}
	}
	if st0 < 0 || backed < 0 || frozen < 0 || len(honest.free) == 0 {
		t.Fatal("scenario too small: need a list with two runs, a backed and a frozen entry, and a free slot")
	}
	tail := func(ix *indexedAvailability) int32 {
		id := ix.byStripe[st0]
		for ix.slab[id].next >= 0 {
			id = ix.slab[id].next
		}
		return id
	}
	second := func(ix *indexedAvailability) *idxEntry { return &ix.slab[ix.slab[ix.byStripe[st0]].next] }

	for _, tc := range []struct {
		name    string
		corrupt func(ix *indexedAvailability)
		want    string
	}{
		{"cyclic list", func(ix *indexedAvailability) { ix.slab[tail(ix)].next = ix.byStripe[st0] }, "twice"},
		{"wrong prev", func(ix *indexedAvailability) { second(ix).prev = -1 }, "links back"},
		{"freed id in a list", func(ix *indexedAvailability) { ix.slab[tail(ix)].next = ix.free[0] }, "which is free"},
		{"id past the slab", func(ix *indexedAvailability) { ix.slab[tail(ix)].next = int32(len(ix.slab)) }, "outside the slab"},
		{"entry of another stripe", func(ix *indexedAvailability) { second(ix).stripe = (st0 + 1) % numStripes }, "of stripe"},
		{"out of order", func(ix *indexedAvailability) {
			head := &ix.slab[ix.byStripe[st0]]
			head.start = second(ix).issued() - 1 + head.lag
		}, "follows one issued"},
		{"issued after the checkpoint's round", func(ix *indexedAvailability) { ix.slab[ix.byStripe[st0]].start = 14 }, "after round 13"},
		{"short count", func(ix *indexedAvailability) { ix.liveCount[st0]-- }, "its count says"},
		{"entry neither listed nor free", func(ix *indexedAvailability) { ix.free = ix.free[1:] }, "listed and"},
		{"free list naming an id twice", func(ix *indexedAvailability) { ix.free = append(ix.free, ix.free[0]) }, "free list holds"},
		{"freed id in an expiry bucket", func(ix *indexedAvailability) { ix.ring[0] = append(ix.ring[0], ix.free[0]) }, "not a live entry due there"},
		{"entry filed under another start", func(ix *indexedAvailability) {
			b := int(ix.slab[frozen].start) % len(ix.ring)
			ix.ring[b] = slices.DeleteFunc(ix.ring[b], func(id int32) bool { return id == frozen })
			ix.ring[(b+1)%len(ix.ring)] = append(ix.ring[(b+1)%len(ix.ring)], frozen)
		}, "not a live entry due there"},
		{"live entry filed nowhere", func(ix *indexedAvailability) {
			b := int(ix.slab[frozen].start) % len(ix.ring)
			ix.ring[b] = slices.DeleteFunc(ix.ring[b], func(id int32) bool { return id == frozen })
		}, "for expiry"},
		{"request link to an entry it does not back", func(ix *indexedAvailability) {
			ix.reqLinks[ix.slab[backed].req] = [2]int32{frozen, -1}
		}, "does not back"},
		{"backed entry its request does not link", func(ix *indexedAvailability) {
			ix.reqLinks[ix.slab[backed].req] = [2]int32{-1, -1}
		}, "request-backed entries"},
	} {
		ss := streamOf(build()) // keys from the honest lists; corrupt after
		tc.corrupt(ss.ix)
		stream := ss.bytes()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fresh().decodeState(ckpt.NewReader(bytes.NewReader(stream)), 13)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decodeState returned %v, want an error naming %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decodeState allocated %d bytes on a %d-byte stream", tc.name, grew, len(stream))
		}
	}
}

// streamOfWrites returns the bytes write puts through a ckpt.Writer.
func streamOfWrites(write func(w *ckpt.Writer)) []byte {
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	write(w)
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// writeSlotHead writes EncodeState's layout up to the progress column.
func writeSlotHead(w *ckpt.Writer, s *System) {
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
}

// TestDecodeBoundsHostileCounts gives each count a decoder reads — and
// each count in a slice reader under it, through the rows that stop at
// one — a value the stream does not back, behind the shortest prefix that
// reaches it. Where decoded state bounds the count, a count past the bound
// is an error naming it; otherwise decoding fails on the missing bytes.
// Either way it must have allocated less than 1 MB. The last rows are an
// honest checkpoint with one progress value no engine writes, or with its
// live list naming a slot twice (which would file it in the retire ring
// twice).
func TestDecodeBoundsHostileCounts(t *testing.T) {
	const huge = 1 << 30
	mk := func() *System { return buildHomogeneous(t, 5, 4, 1, 2, 6, 2, 1.5, 1.2, nil) }
	fresh := mk()
	numStripes, T := fresh.cat.NumStripes(), fresh.cat.T
	boxes := func(w *ckpt.Writer, outstanding int32) {
		w.Int(0) // no slots: seven empty slot arrays follow
		for i := 0; i < 7; i++ {
			w.U64(0)
		}
		for b := 0; b < fresh.n; b++ {
			w.I32(outstanding)
			w.I32(1)
			w.Bool(false)
			outstanding = 0
		}
		w.U64(0) // idle list
	}
	systemHead := func(w *ckpt.Writer) {
		w.U64(coreStateVersion)
		w.U64(fresh.Fingerprint())
		w.Int(0)
		w.Bool(false)
	}
	storeHead := func(w *ckpt.Writer) {
		w.Int(0) // slab
		heads := make([]int32, numStripes)
		for st := range heads {
			heads[st] = -1 // empty lists
		}
		w.I32s(heads)
		w.I32s(make([]int32, numStripes))
	}
	metricsHead := func(w *ckpt.Writer) {
		for i := 0; i < 6; i++ {
			w.I64(0)
		}
		w.Int(-1) // fail round
		w.Int(0)  // peak requests
	}
	// Each decoder is built before the allocation count starts.
	type decoder func() func(*ckpt.Reader) error
	decodeSystem := func() func(*ckpt.Reader) error { return mk().DecodeState }
	decodeStore := func() func(*ckpt.Reader) error {
		ix := newIndexedAvailability(numStripes, T)
		return func(r *ckpt.Reader) error { return ix.decodeState(r, 0) }
	}
	decodeMetrics := func(round int) decoder {
		return func() func(*ckpt.Reader) error {
			m := new(runMetrics)
			return func(r *ckpt.Reader) error { return m.decode(r, round) }
		}
	}

	// An honest checkpoint with stalled, live and retired slots, and the
	// stream with its progress column or its live list replaced.
	live := buildHomogeneous(t, 43, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) { cfg.Failure = FailStall })
	gen := &uniformGen{rng: stats.NewRNG(1213), p: 0.8}
	for r := 0; r < 40; r++ {
		if _, err := live.Step(gen); err != nil {
			t.Fatal(err)
		}
	}
	honest := streamOfWrites(func(w *ckpt.Writer) {
		if err := live.EncodeState(w); err != nil {
			t.Fatal(err)
		}
	})
	slotSection := func(progress, list []int32) []byte {
		return streamOfWrites(func(w *ckpt.Writer) {
			writeSlotHead(w, live)
			w.I32s(progress)
			w.Bools(live.reqActive)
			w.I32s(live.freeSlots)
			w.I32s(list)
		})
	}
	section := slotSection(progressTable(live), live.activeList)
	if !bytes.Equal(honest[:len(section)], section) {
		t.Fatal("EncodeState's slot section moved")
	}
	rest := honest[len(section):]
	withProgress := func(slot int, p int32) []byte {
		table := progressTable(live)
		table[slot] = p
		return append(slotSection(table, live.activeList), rest...)
	}
	listing := func(list []int32) []byte { return append(slotSection(progressTable(live), list), rest...) }
	liveT := int32(live.cat.T)
	liveSlot, retiredSlot := int(live.activeList[0]), -1
	for slot, active := range live.reqActive {
		if !active {
			retiredSlot = slot
		}
	}
	if retiredSlot < 0 {
		t.Fatal("no retired slot to corrupt")
	}
	decodeLive := func() func(*ckpt.Reader) error {
		return buildHomogeneous(t, 43, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) { cfg.Failure = FailStall }).DecodeState
	}
	if err := decodeLive()(ckpt.NewReader(bytes.NewReader(listing(live.activeList)))); err != nil {
		t.Fatalf("honest stream rebuilt by hand rejected: %v", err)
	}
	twice := slices.Clone(live.activeList)
	twice[len(twice)-1] = twice[0]

	for _, tc := range []struct {
		name   string
		stream []byte
		decode decoder
		want   string
	}{
		{"slot count", streamOfWrites(func(w *ckpt.Writer) { systemHead(w); w.Int(huge) }), decodeSystem, ""},
		{"pending bucket", streamOfWrites(func(w *ckpt.Writer) {
			systemHead(w)
			boxes(w, math.MaxInt32)
			w.Int(huge)
		}), decodeSystem, ""},
		{"pending bucket past the awaited requests", streamOfWrites(func(w *ckpt.Writer) {
			systemHead(w)
			boxes(w, 2)
			w.Int(3)
		}), decodeSystem, "exceeds the 2 requests"},
		{"slab", streamOfWrites(func(w *ckpt.Writer) { w.Int(huge) }), decodeStore, ""},
		{"request links", streamOfWrites(func(w *ckpt.Writer) { storeHead(w); w.Int(huge) }), decodeStore, ""},
		{"events", streamOfWrites(func(w *ckpt.Writer) {
			storeHead(w)
			w.Int(0)     // request links
			w.U64(0)     // free list
			w.Int(0)     // keys
			w.Int(T + 4) // expiry ring
			for i := 0; i < T+4; i++ {
				w.U64(0)
			}
			w.Int(huge)
		}), decodeStore, ""},
		{"obstructions", streamOfWrites(func(w *ckpt.Writer) { metricsHead(w); w.Int(huge) }), decodeMetrics(1 << 40), ""},
		{"obstructions past the round", streamOfWrites(func(w *ckpt.Writer) { metricsHead(w); w.Int(11) }),
			decodeMetrics(10), "11 obstructions by round 10"},
		{"trace", streamOfWrites(func(w *ckpt.Writer) {
			metricsHead(w)
			w.Int(0) // obstructions
			w.U64(0) // start-up histogram
			w.F64(0) // utilization sum
			w.I64(0) // utilization rounds
			w.Int(0) // largest swarm
			w.Int(huge)
		}), decodeMetrics(1 << 40), ""},
		{"trace past the round", streamOfWrites(func(w *ckpt.Writer) {
			metricsHead(w)
			w.Int(0)
			w.U64(0)
			w.F64(0)
			w.I64(0)
			w.Int(0)
			w.Int(11)
		}), decodeMetrics(10), "11 trace records by round 10"},
		{"live slot behind its start", withProgress(liveSlot, -1), decodeLive, "has progress -1"},
		{"live slot past T", withProgress(liveSlot, liveT+1), decodeLive, "has progress 10"},
		{"retired slot short of T", withProgress(retiredSlot, liveT-1), decodeLive, "(live false) has progress 8"},
		{"live list naming a slot twice", listing(twice), decodeLive, "live list holds invalid slot"},
	} {
		decode, r := tc.decode(), ckpt.NewReader(bytes.NewReader(tc.stream))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(r)
		runtime.ReadMemStats(&after)
		t.Logf("%s (%d bytes): %v", tc.name, len(tc.stream), err)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode returned %v, want an error naming %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decode allocated %d bytes on a %d-byte stream", tc.name, grew, len(tc.stream))
		}
	}
}

// TestDecodeRefusesEntriesOfNoLiveSlot re-points one request-backed cache
// entry of an honest checkpoint, link included, at a slot that is not a
// live request of its stripe. Each structure is consistent on its own, so
// only the check of the store against the slots can refuse it. Without
// it, an entry naming a slot past the slot arrays decodes, and the first
// walk of its stripe that reaches it (entryChunks) indexes past the
// progress array and panics.
func TestDecodeRefusesEntriesOfNoLiveSlot(t *testing.T) {
	build := func() *System {
		return buildHomogeneous(t, 43, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) { cfg.Failure = FailStall })
	}
	live := build()
	gen := &uniformGen{rng: stats.NewRNG(1213), p: 0.8}
	for r := 0; r < 40; r++ {
		if _, err := live.Step(gen); err != nil {
			t.Fatal(err)
		}
	}
	encode := func(s *System) []byte {
		return streamOfWrites(func(w *ckpt.Writer) {
			if err := s.EncodeState(w); err != nil {
				t.Fatal(err)
			}
		})
	}
	honest := encode(live)
	// rebacked restores the honest checkpoint, moves the first linked
	// entry (and its link) to the slot target picks, and encodes the result.
	rebacked := func(target func(s *System, st video.StripeID) int) []byte {
		s := build()
		if err := s.DecodeState(ckpt.NewReader(bytes.NewReader(honest))); err != nil {
			t.Fatalf("honest checkpoint rejected: %v", err)
		}
		ix := s.avail.(*indexedAvailability)
		for slot := range ix.reqLinks {
			if id := ix.reqLinks[slot][0]; id >= 0 {
				to := target(s, ix.slab[id].stripe)
				for len(ix.reqLinks) <= to {
					ix.reqLinks = append(ix.reqLinks, [2]int32{-1, -1})
				}
				free := slices.Index(ix.reqLinks[to][:], -1)
				if free < 0 {
					t.Fatalf("slot %d backs two entries already", to)
				}
				ix.reqLinks[slot][0], ix.reqLinks[slot][1] = ix.reqLinks[slot][1], -1
				ix.reqLinks[to][free] = id
				ix.slab[id].req = int32(to)
				return encode(s)
			}
		}
		t.Fatal("no request-backed entry to move")
		return nil
	}
	retired := func(s *System, _ video.StripeID) int {
		return slices.Index(s.reqActive, false)
	}
	otherStripe := func(s *System, st video.StripeID) int {
		links := s.avail.(*indexedAvailability).reqLinks
		for _, slot := range s.activeList {
			if s.reqStripe[slot] != st && (int(slot) >= len(links) || slices.Contains(links[slot][:], -1)) {
				return int(slot)
			}
		}
		t.Fatal("no live slot of another stripe with a free link")
		return -1
	}
	for _, tc := range []struct {
		name   string
		target func(s *System, st video.StripeID) int
	}{
		{"slot past the slot arrays", func(s *System, _ video.StripeID) int { return len(s.reqStripe) + 3 }},
		{"retired slot", retired},
		{"live slot of another stripe", otherStripe},
	} {
		stream := rebacked(tc.target)
		s := build()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.DecodeState(ckpt.NewReader(bytes.NewReader(stream)))
		runtime.ReadMemStats(&after)
		t.Logf("%s: %v", tc.name, err)
		if err == nil || !strings.Contains(err.Error(), "no live request of that stripe") {
			t.Errorf("%s: decode returned %v, want the backing refused", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decode allocated %d bytes on a %d-byte stream", tc.name, grew, len(stream))
		}
	}
}

// refFingerprint is Fingerprint as hash/fnv computes it: every
// configuration word as eight little-endian bytes through New64a.
func refFingerprint(s *System) uint64 {
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

// fnvWord and fnvHolder fold runs of zero bytes into one multiply. Over
// words whose bytes are each zero half the time, and holders of every
// byte length, both must hash as hash/fnv does.
func TestFNVWordsMatchHashFNV(t *testing.T) {
	rng := stats.NewRNG(5)
	var buf [8]byte
	for i := 0; i < 20_000; i++ {
		v := rng.Uint64()
		for k := 0; k < 8; k++ {
			if rng.Intn(2) == 0 {
				v &^= 0xff << (8 * k)
			}
		}
		seed := rng.Uint64()
		ref := fnv.New64a()
		binary.LittleEndian.PutUint64(buf[:], seed)
		ref.Write(buf[:]) // start from an arbitrary state
		h := ref.Sum64()
		binary.LittleEndian.PutUint64(buf[:], v)
		ref.Write(buf[:])
		if got, want := fnvWord(h, v), ref.Sum64(); got != want {
			t.Fatalf("fnvWord(%016x, %016x) = %016x, hash/fnv %016x", h, v, got, want)
		}
		b := uint32(v) >> (8 * (i % 4))
		binary.LittleEndian.PutUint64(buf[:], uint64(b))
		ref.Write(buf[:])
		if got, want := fnvHolder(fnvWord(h, v), b), ref.Sum64(); got != want {
			t.Fatalf("fnvHolder(%08x) = %016x, hash/fnv %016x", b, got, want)
		}
	}
}

// TestFingerprintMatchesFNV holds the inline, cached fingerprint to
// hash/fnv on a preload system, a relayed one (uploads and relays hashed),
// a sourcing-only one and a FailStall one, before any Step and after Steps
// and capacity changes, which change no hashed facet: the cached value,
// a fresh hash and the reference must agree throughout.
func TestFingerprintMatchesFNV(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  *System
	}{
		{"preload", buildHomogeneous(t, 3, 40, 4, 6, 20, 4, 1.5, 1.2, nil)},
		{"relayed", buildRelayedSmall(t, 0.5)},
		{"sourcing only", buildHomogeneous(t, 5, 30, 4, 6, 20, 4, 2.0, 1.2, func(cfg *Config) { cfg.DisableCacheServing = true })},
		{"stall", buildHomogeneous(t, 7, 30, 4, 6, 20, 4, 0.8, 1.2, func(cfg *Config) { cfg.Failure = FailStall })},
	} {
		s := tc.sys
		want := refFingerprint(s)
		if got := s.Fingerprint(); got != want {
			t.Fatalf("%s: Fingerprint %016x, hash/fnv %016x", tc.name, got, want)
		}
		gen := &uniformGen{rng: stats.NewRNG(17), p: 0.5}
		for r := 1; r <= 30; r++ {
			if _, err := s.Step(gen); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := s.SetCapacity(r%s.n, int64(s.boxes[r%s.n].capSlots)+1); err != nil {
				t.Fatal(err)
			}
		}
		if got, fresh := s.Fingerprint(), s.hashConfig(); got != want || fresh != want || refFingerprint(s) != want {
			t.Fatalf("%s after 30 rounds: cached %016x, fresh %016x, hash/fnv %016x, first %016x",
				tc.name, got, fresh, refFingerprint(s), want)
		}
	}
}

// liveCheckpoint is TestDecodeBoundsHostileCounts' honest system, 40
// rounds in, with its builder.
func liveCheckpoint(t *testing.T) (live *System, build func() *System) {
	build = func() *System {
		return buildHomogeneous(t, 43, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) { cfg.Failure = FailStall })
	}
	live = build()
	gen := &uniformGen{rng: stats.NewRNG(1213), p: 0.8}
	for r := 0; r < 40; r++ {
		if _, err := live.Step(gen); err != nil {
			t.Fatal(err)
		}
	}
	return live, build
}

// decodeRefused decodes stream into a fresh system and requires an error
// naming want — not a panic, and not a silent load.
func decodeRefused(t *testing.T, name string, build func() *System, stream []byte, want string) {
	t.Helper()
	err := build().DecodeState(ckpt.NewReader(bytes.NewReader(stream)))
	t.Logf("%s: %v", name, err)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: decode returned %v, want an error naming %q", name, err, want)
	}
}

// TestDecodeRefusesWrappedSlotValues stores one value of each int32 slot
// column 2^32 above its honest value. A reader that wrapped it would read
// the honest value back and load the checkpoint; it must be refused.
func TestDecodeRefusesWrappedSlotValues(t *testing.T) {
	live, build := liveCheckpoint(t)
	honest := streamOfWrites(func(w *ckpt.Writer) {
		if err := live.EncodeState(w); err != nil {
			t.Fatal(err)
		}
	})
	head := streamOfWrites(func(w *ckpt.Writer) { writeSlotHead(w, live) })
	if !bytes.Equal(honest[:len(head)], head) {
		t.Fatal("EncodeState's slot head moved")
	}
	widen := func(col []int32, wrap bool) []int64 {
		s := make([]int64, len(col))
		for i, v := range col {
			s[i] = int64(v)
		}
		if wrap {
			s[0] += 1 << 32
		}
		return s
	}
	for field, name := range []string{"stripe", "start", "box", "viewer"} {
		stream := streamOfWrites(func(w *ckpt.Writer) {
			w.U64(coreStateVersion)
			w.U64(live.Fingerprint())
			w.Int(live.round)
			w.Bool(live.failed)
			w.Int(len(live.reqStripe))
			for i, st := range live.reqStripe {
				v := int64(st)
				if field == 0 && i == 0 {
					v += 1 << 32
				}
				w.I64(v) // the I32 layout
			}
			for c, col := range [][]int32{live.reqStart, live.reqBox, live.reqViewer} {
				w.I64s(widen(col, field == c+1)) // the I32s layout
			}
		})
		decodeRefused(t, "slot "+name+" past int32", build, append(stream, honest[len(head):]...), "out of int32 range")
	}
}

// TestDecodeRefusesMatcherDisagreeingWithSlots restores an honest
// checkpoint, moves the matcher away from the boxes or the slots — each
// structure still consistent on its own — and encodes the result. Decode
// must refuse a right whose capacity is not its box's slot count, and a
// matcher whose active lefts are not the live slots.
func TestDecodeRefusesMatcherDisagreeingWithSlots(t *testing.T) {
	live, build := liveCheckpoint(t)
	honest := streamOfWrites(func(w *ckpt.Writer) {
		if err := live.EncodeState(w); err != nil {
			t.Fatal(err)
		}
	})
	retired := slices.Index(live.reqActive, false)
	if retired < 0 {
		t.Fatal("no retired slot")
	}
	for _, tc := range []struct {
		name  string
		alter func(s *System)
		want  string
	}{
		{"right capacity above its box's slots", func(s *System) {
			s.matcher.SetCapacity(3, s.matcher.Capacity(3)+1)
		}, fmt.Sprintf("matcher capacity %d of box 3 differs from its %d slots", live.boxes[3].capSlots+1, live.boxes[3].capSlots)},
		{"live slot missing from the matcher", func(s *System) {
			s.matcher.RemoveLeft(int(s.activeList[0]))
		}, "active requests, the live list"},
		{"retired slot active in the matcher instead", func(s *System) {
			s.matcher.RemoveLeft(int(s.activeList[0]))
			s.matcher.AddLeft(retired)
		}, "is no active request of the matcher"},
	} {
		s := build()
		if err := s.DecodeState(ckpt.NewReader(bytes.NewReader(honest))); err != nil {
			t.Fatalf("honest checkpoint rejected: %v", err)
		}
		tc.alter(s)
		stream := streamOfWrites(func(w *ckpt.Writer) {
			if err := s.EncodeState(w); err != nil {
				t.Fatal(err)
			}
		})
		decodeRefused(t, tc.name, build, stream, tc.want)
	}
}
