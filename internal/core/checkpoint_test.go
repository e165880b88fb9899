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
				busy[b] = live.boxes[b].busy()
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
				if restored.boxes[b].busy() != want {
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

// listedEntry is an entry as a walk meets it, with the list position its
// run link points at (−1 for none).
type listedEntry struct {
	entry
	jump int
}

// storeLists is a store's stripe lists newest first, with their run links:
// what a store holds apart from slab ids and the indexes over them.
func storeLists(ix *indexedAvailability) [][]listedEntry {
	lists := make([][]listedEntry, len(ix.byStripe))
	for st, head := range ix.byStripe {
		pos := map[int32]int{-1: -1}
		for id := head; id >= 0; id = ix.slab[id].next {
			pos[id] = len(pos) - 1
		}
		for id := head; id >= 0; id = ix.slab[id].next {
			lists[st] = append(lists[st], listedEntry{ix.slab[id].entry, pos[ix.slab[id].jump]})
		}
	}
	return lists
}

// TestStoreDecodeRejectsMalformedLists round-trips a store with live,
// mirrored, frozen and expired entries: the decoded store must hold the
// same lists with the same run links and encode the same bytes. Then it
// edits the honest store into lists add cannot take — it panics on a
// negative start, an entry issued before the list's newest or a third
// entry of one slot, and grows its request links to any slot id — and
// encodes them: each must come back as an error, having allocated less
// than 1 MB.
func TestStoreDecodeRejectsMalformedLists(t *testing.T) {
	const numStripes, T = 3, 5
	build := func() (ix *indexedAvailability, slots int) {
		ix = newIndexedAvailability(numStripes, T)
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
		ix.expire(13)
		return ix, int(slot)
	}
	encode := func(ix *indexedAvailability) []byte { return streamOfWrites(ix.encodeState) }
	fresh := func() *indexedAvailability { return newIndexedAvailability(numStripes, T) }
	honest, slots := build()
	decoded := fresh()
	if err := decoded.decodeState(ckpt.NewReader(bytes.NewReader(encode(honest))), slots); err != nil {
		t.Fatalf("honest stream rejected: %v", err)
	}
	if !reflect.DeepEqual(storeLists(decoded), storeLists(honest)) {
		t.Fatal("decoded lists differ from the encoded ones: entries, order or run links")
	}
	if !bytes.Equal(encode(decoded), encode(honest)) {
		t.Fatal("decode → encode does not reproduce the stream")
	}
	// st0's newest entry was issued after its second; twice is a slot that
	// backs two entries, frozen a frozen entry.
	st0, twice, frozen := -1, int32(-1), int32(-1)
	for st, head := range honest.byStripe {
		if head < 0 {
			continue
		}
		if e := &honest.slab[head]; e.next >= 0 && honest.slab[e.next].issued() < e.issued() {
			st0 = st
		}
	}
	for _, links := range honest.reqLinks {
		if links[0] >= 0 && links[1] >= 0 {
			twice = honest.slab[links[0]].req
		}
	}
	for st := range numStripes {
		for id := honest.byStripe[st]; id >= 0; id = honest.slab[id].next {
			if honest.slab[id].req < 0 {
				frozen = id
			}
		}
	}
	if st0 < 0 || twice < 0 || frozen < 0 {
		t.Fatal("scenario too small: need a list of two rounds, a slot backing two entries and a frozen entry")
	}
	backed := func(ix *indexedAvailability) *idxEntry { return &ix.slab[ix.reqLinks[twice][0]] }

	for _, tc := range []struct {
		name   string
		stream func() []byte
		want   string
	}{
		{"out of order", func() []byte {
			ix, _ := build()
			head := &ix.slab[ix.byStripe[st0]]
			head.start = ix.slab[head.next].issued() - 1 + head.lag
			return encode(ix)
		}, "follows one issued"},
		{"negative start", func() []byte {
			ix, _ := build()
			ix.slab[frozen].start = -1
			return encode(ix)
		}, "starts at round -1"},
		{"slot past the slots", func() []byte {
			ix, _ := build()
			backed(ix).req = int32(slots)
			return encode(ix)
		}, fmt.Sprintf("names slot %d, the checkpoint has %d", slots, slots)},
		{"slot below -1", func() []byte {
			ix, _ := build()
			backed(ix).req = -2
			return encode(ix)
		}, "names slot -2"},
		{"third entry of one slot", func() []byte {
			ix, _ := build()
			ix.slab[frozen].req = twice
			return encode(ix)
		}, fmt.Sprintf("slot %d backs more than two", twice)},
		{"negative entry count", func() []byte { return streamOfWrites(func(w *ckpt.Writer) { w.Int(-1) }) }, "count -1 out of range"},
	} {
		stream := tc.stream()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fresh().decodeState(ckpt.NewReader(bytes.NewReader(stream)), slots)
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
// honest checkpoint with one progress value no engine writes.
func TestDecodeBoundsHostileCounts(t *testing.T) {
	const huge = 1 << 30
	mk := func() *System { return buildHomogeneous(t, 5, 4, 1, 2, 6, 2, 1.5, 1.2, nil) }
	fresh := mk()
	numStripes, T := fresh.cat.NumStripes(), fresh.cat.T
	boxes := func(w *ckpt.Writer, outstanding int32) {
		w.Int(0) // no slots: five empty slot arrays follow
		for i := 0; i < 5; i++ {
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
	// stream with its progress column replaced.
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
	slotSection := func(progress []int32) []byte {
		return streamOfWrites(func(w *ckpt.Writer) {
			writeSlotHead(w, live)
			w.I32s(progress)
			w.I32s(live.freeSlots)
		})
	}
	section := slotSection(progressTable(live))
	if !bytes.Equal(honest[:len(section)], section) {
		t.Fatal("EncodeState's slot section moved")
	}
	rest := honest[len(section):]
	withProgress := func(slot int, p int32) []byte {
		table := progressTable(live)
		table[slot] = p
		return append(slotSection(table), rest...)
	}
	liveT := int32(live.cat.T)
	liveSlot, retiredSlot := int(live.matcher.ActiveLefts()[0]), slices.Index(liveSlots(live), false)
	if retiredSlot < 0 {
		t.Fatal("no retired slot to corrupt")
	}
	decodeLive := func() func(*ckpt.Reader) error {
		return buildHomogeneous(t, 43, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) { cfg.Failure = FailStall }).DecodeState
	}
	if err := decodeLive()(ckpt.NewReader(bytes.NewReader(withProgress(liveSlot, progressTable(live)[liveSlot])))); err != nil {
		t.Fatalf("honest stream rebuilt by hand rejected: %v", err)
	}

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
		{"entry count", streamOfWrites(func(w *ckpt.Writer) { w.Int(huge) }), decodeStore, ""},
		{"entry count of a later stripe", streamOfWrites(func(w *ckpt.Writer) {
			w.Int(0)
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
// entry of an honest checkpoint at a slot that is not a live request of
// its stripe. Each section is consistent on its own, so only the audit of
// the store against the slots can refuse it (or, for a slot past the
// slot arrays, the store's decoder, before add grows the request links to
// it). Without it, the first walk of the stripe that reaches the entry
// (entryChunks) reads the progress of a slot that has none.
func TestDecodeRefusesEntriesOfNoLiveSlot(t *testing.T) {
	live, build := liveCheckpoint(t)
	honest := encodeSystem(t, live)
	// backs counts the entries each slot backs.
	backs := func(s *System) map[int32]int {
		n := map[int32]int{}
		for _, e := range s.avail.all() {
			if e.req >= 0 {
				n[e.req]++
			}
		}
		return n
	}
	otherStripe := func(s *System, st video.StripeID) int32 {
		n := backs(s)
		for _, slot := range s.matcher.ActiveLefts() {
			if s.reqStripe[slot] != st && n[slot] < 2 {
				return slot
			}
		}
		t.Fatal("no live slot of another stripe backing fewer than two entries")
		return -1
	}
	for _, tc := range []struct {
		name   string
		target func(s *System, st video.StripeID, e *entry) int32
		want   string
	}{
		{"slot past the slot arrays", func(s *System, _ video.StripeID, _ *entry) int32 { return int32(len(s.reqStripe)) + 3 },
			fmt.Sprintf("entry names slot %d, the checkpoint has %d", len(live.reqStripe)+3, len(live.reqStripe))},
		{"retired slot", func(s *System, st video.StripeID, e *entry) int32 {
			// Its stale fields agree with the entry: only its liveness does not.
			slot := int32(slices.Index(liveSlots(s), false))
			s.reqStripe[slot], s.reqStart[slot], s.reqBox[slot], s.reqViewer[slot] = st, e.issued(), e.box, e.box
			return slot
		}, "no live request of that stripe"},
		{"live slot of another stripe", func(s *System, st video.StripeID, _ *entry) int32 { return otherStripe(s, st) },
			"no live request of that stripe"},
	} {
		s := restore(t, build, honest)
		for st, e := range s.avail.all() {
			if e.req >= 0 {
				e.req = tc.target(s, st, e)
				break
			}
		}
		stream := encodeSystem(t, s)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeRefused(t, tc.name, build, stream, tc.want)
		runtime.ReadMemStats(&after)
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
			if err := s.SetCapacity(r%s.n, s.matcher.Capacity(r%s.n)+1); err != nil {
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
	return checkpointUnder(t, 0.8)
}

// checkpointUnder is liveCheckpoint's system under demand probability p.
func checkpointUnder(t *testing.T, p float64) (live *System, build func() *System) {
	build = func() *System {
		return buildHomogeneous(t, 43, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) { cfg.Failure = FailStall })
	}
	live = build()
	gen := &uniformGen{rng: stats.NewRNG(1213), p: p}
	for r := 0; r < 40; r++ {
		if _, err := live.Step(gen); err != nil {
			t.Fatal(err)
		}
	}
	return live, build
}

// encodeSystem returns s's checkpoint.
func encodeSystem(t *testing.T, s *System) []byte {
	t.Helper()
	return streamOfWrites(func(w *ckpt.Writer) {
		if err := s.EncodeState(w); err != nil {
			t.Fatal(err)
		}
	})
}

// restore decodes an honest checkpoint into a fresh system.
func restore(t *testing.T, build func() *System, stream []byte) *System {
	t.Helper()
	s := build()
	if err := s.DecodeState(ckpt.NewReader(bytes.NewReader(stream))); err != nil {
		t.Fatalf("honest checkpoint rejected: %v", err)
	}
	return s
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
// checkpoint, moves the matcher away from the slots — each structure still
// consistent on its own — and encodes the result. Decode must refuse a live
// list (the matcher's active lefts) that does not partition the slots with
// the free list.
func TestDecodeRefusesMatcherDisagreeingWithSlots(t *testing.T) {
	live, build := liveCheckpoint(t)
	honest := encodeSystem(t, live)
	retired := slices.Index(liveSlots(live), false)
	if retired < 0 {
		t.Fatal("no retired slot")
	}
	for _, tc := range []struct {
		name  string
		alter func(s *System)
		want  string
	}{
		{"live slot missing from the matcher", func(s *System) {
			s.matcher.RemoveLeft(int(s.matcher.ActiveLefts()[0]))
		}, "1 slots are neither live nor free"},
		{"retired slot active in the matcher instead", func(s *System) {
			s.matcher.RemoveLeft(int(s.matcher.ActiveLefts()[0]))
			s.matcher.AddLeft(retired)
		}, fmt.Sprintf("free list names slot %d", retired)},
	} {
		s := restore(t, build, honest)
		tc.alter(s)
		decodeRefused(t, tc.name, build, encodeSystem(t, s), tc.want)
	}
}

// TestDecodeRefusesInconsistentState restores an honest checkpoint, edits
// one fact into a state no engine reaches, and encodes the result; decode
// must refuse each with an error. Of the first seven, the first four
// decoded and then panicked the next Step at state version 3, the last
// three decoded and ran on silently. The rest hold each remaining check of
// the audit, down to each disjunct of its condition, to a row. Demand is
// light enough that some boxes are idle.
func TestDecodeRefusesInconsistentState(t *testing.T) {
	live, build := checkpointUnder(t, 0.3)
	honest := encodeSystem(t, live)
	// young is a live slot issued this round (progress at most 1), idle a
	// box that is not busy, busy one that is, and pending the bucket of a
	// scheduled issuance.
	young, idle, busy, pending := int32(-1), int32(-1), -1, -1
	for _, slot := range live.matcher.ActiveLefts() {
		if int(live.reqStart[slot]) == live.round {
			young = slot
		}
	}
	if len(live.idleList) > 0 {
		idle = live.idleList[0]
	}
	for b := range live.boxes {
		if live.boxes[b].busy() {
			busy = b
		}
	}
	for i, bucket := range live.pendingRing {
		if len(bucket) > 0 {
			pending = i
		}
	}
	if young < 0 || len(live.idleList) < 2 || busy < 0 || pending < 0 || len(live.freeSlots) == 0 {
		t.Fatal("scenario too small: need a slot issued in the last round, two idle boxes and a busy one, an issuance and a free slot")
	}
	n, T := int32(live.n), int32(live.cat.T)
	// oldest returns the oldest entry of the first list whose oldest entry
	// is frozen; newest the newest entry of the first list whose newest is
	// a request's own (lag 0). Lowering an oldest start or raising a newest
	// one keeps each list's issue rounds in order.
	oldest := func(s *System) *entry {
		ix := s.avail.(*indexedAvailability)
		for _, head := range ix.byStripe {
			id := head
			for id >= 0 && ix.slab[id].next >= 0 {
				id = ix.slab[id].next
			}
			if id >= 0 && ix.slab[id].req < 0 {
				return &ix.slab[id].entry
			}
		}
		t.Fatal("no list ends in a frozen entry")
		return nil
	}
	newest := func(s *System) *entry {
		ix := s.avail.(*indexedAvailability)
		for _, head := range ix.byStripe {
			if head >= 0 && ix.slab[head].req >= 0 && ix.slab[head].lag == 0 {
				return &ix.slab[head].entry
			}
		}
		t.Fatal("no list starts with a request's own entry")
		return nil
	}
	for _, tc := range []struct {
		name  string
		alter func(s *System)
		want  string
	}{
		{"free list naming a live slot", func(s *System) {
			s.freeSlots = append(s.freeSlots, young)
		}, fmt.Sprintf("free list names slot %d", young)},
		{"free list naming a slot past the arrays", func(s *System) {
			s.freeSlots = append(s.freeSlots, int32(len(s.reqStripe))+2)
		}, fmt.Sprintf("free list names slot %d", len(live.reqStripe)+2)},
		{"non-busy box missing from the idle list", func(s *System) {
			s.idleList = slices.DeleteFunc(s.idleList, func(b int32) bool { return b == idle })
		}, fmt.Sprintf("boxes are idle, the idle list holds %d", len(live.idleList)-1)},
		{"live slot's viewer out of range", func(s *System) {
			s.reqViewer[young] = n
		}, fmt.Sprintf("live slot %d names box %d and viewer %d", young, live.reqBox[young], n)},
		{"base before the slot's start", func(s *System) {
			s.reqBase[young] = s.reqStart[young] - 1
		}, fmt.Sprintf("live slot %d started at round %d has base %d", young, live.round, live.round-1)},
		{"live slot's box out of range", func(s *System) {
			s.reqBox[young] = n
		}, fmt.Sprintf("live slot %d names box %d", young, n)},
		{"start after the round", func(s *System) {
			s.reqStart[young] = int32(s.round) + 1
		}, fmt.Sprintf("live slot %d starts at round %d, after round %d", young, live.round+1, live.round)},

		{"tracker a round ahead", func(s *System) {
			s.tracker.BeginRound(s.round + 1)
		}, fmt.Sprintf("tracker is at round %d, the system at %d", live.round+1, live.round)},
		{"live slot's stripe out of range", func(s *System) {
			s.reqStripe[young] = video.StripeID(s.cat.NumStripes())
		}, fmt.Sprintf("live slot %d names stripe %d", young, live.cat.NumStripes())},
		{"live slot's stripe negative", func(s *System) {
			s.reqStripe[young] = -1
		}, fmt.Sprintf("live slot %d names stripe -1", young)},
		{"free list naming a negative slot", func(s *System) {
			s.freeSlots = append(s.freeSlots, -1)
		}, "free list names slot -1"},
		{"idle box listed twice", func(s *System) {
			s.idleList[1] = s.idleList[0]
		}, fmt.Sprintf("idle list position 0 holds box %d, which is busy or listed twice", idle)},
		{"idle list naming a box out of range", func(s *System) {
			s.idleList = append(s.idleList, n)
		}, fmt.Sprintf("idle list holds box %d, the system has %d", n, n)},
		{"busy box in the idle list", func(s *System) {
			s.idleList = append(s.idleList, int32(busy))
		}, fmt.Sprintf("holds box %d, which is busy", busy)},
		{"outstanding one more than viewed", func(s *System) {
			s.boxes[busy].outstanding++
		}, fmt.Sprintf("box %d has %d outstanding", busy, live.boxes[busy].outstanding+1)},
		{"issuance filed under another round", func(s *System) {
			s.pendingRing[pending][0].round++
		}, fmt.Sprintf("pending bucket %d holds an issuance for round %d", pending, live.pendingRing[pending][0].round+1)},
		{"issuance due before the round", func(s *System) {
			s.pendingRing[pending][0].round -= len(s.pendingRing)
		}, fmt.Sprintf("holds an issuance for round %d", live.pendingRing[pending][0].round-len(live.pendingRing))},
		{"issuance due past the horizon", func(s *System) {
			s.pendingRing[pending][0].round += len(s.pendingRing)
		}, fmt.Sprintf("holds an issuance for round %d", live.pendingRing[pending][0].round+len(live.pendingRing))},
		{"issuance of a stripe out of range", func(s *System) {
			s.pendingRing[pending][0].stripe = video.StripeID(s.cat.NumStripes())
		}, fmt.Sprintf("issuance names stripe %d", live.cat.NumStripes())},
		{"issuance of a negative stripe", func(s *System) {
			s.pendingRing[pending][0].stripe = -1
		}, "issuance names stripe -1"},
		{"issuance of a box out of range", func(s *System) {
			s.pendingRing[pending][0].requester = n
		}, fmt.Sprintf("requester %d", n)},
		{"issuance viewed by a box out of range", func(s *System) {
			iss := &s.pendingRing[pending][0]
			iss.viewer, iss.mirror = n, -1
		}, fmt.Sprintf("viewer %d", n)},
		{"issuance mirrored to a box other than its viewer", func(s *System) {
			iss := &s.pendingRing[pending][0]
			iss.mirror = (iss.viewer + 1) % n
		}, "and mirror"},
		{"recheck of a slot past the arrays", func(s *System) {
			s.recheckRing[0] = append(s.recheckRing[0], int32(len(s.reqStripe)))
		}, fmt.Sprintf("recheck ring names slot %d", len(live.reqStripe))},
		{"recheck of a negative slot", func(s *System) {
			s.recheckRing[0] = append(s.recheckRing[0], -1)
		}, "recheck ring names slot -1"},
		{"entry of a box out of range", func(s *System) { oldest(s).box = n }, fmt.Sprintf("entry names box %d", n)},
		{"entry of lag 2", func(s *System) { oldest(s).lag = 2 }, "with lag 2"},
		{"entry of lag -1", func(s *System) {
			// Frozen, so that the lag indexes no holder first.
			e := newest(s)
			e.req, e.frozen, e.lag = -1, 0, -1
		}, "with lag -1"},
		{"entry past its window", func(s *System) {
			oldest(s).start = int32(s.round) - T - 1
		}, fmt.Sprintf("starts at round %d, outside", int32(live.round)-T-1)},
		{"entry issued after the next round", func(s *System) {
			// Frozen, so that no check of a backing slot refuses it first.
			e := newest(s)
			e.req, e.frozen, e.start = -1, 0, int32(s.round)+2
		}, fmt.Sprintf("starts at round %d, outside [", live.round+2)},
		{"frozen past T", func(s *System) { oldest(s).frozen = T + 1 }, fmt.Sprintf("froze at progress %d", T+1)},
		{"frozen below 0", func(s *System) { oldest(s).frozen = -1 }, "froze at progress -1"},
		{"entry issued after its slot", func(s *System) { newest(s).start++ }, "which started at"},
		{"entry held by a box that did not request it", func(s *System) {
			e := newest(s)
			e.box = (e.box + 1) % n
		}, "whose requester is"},
	} {
		s := restore(t, build, honest)
		tc.alter(s)
		decodeRefused(t, tc.name, build, encodeSystem(t, s), tc.want)
	}
}
