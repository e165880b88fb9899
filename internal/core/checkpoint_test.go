package core

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
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
			wantProgress = append(wantProgress, append([]int32(nil), live.reqProgress...))
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
			if len(restored.reqProgress) != len(wantProgress[i]) {
				t.Fatalf("round %d: slot table grew to %d slots, live had %d",
					r, len(restored.reqProgress), len(wantProgress[i]))
			}
			for slot, want := range wantProgress[i] {
				if restored.reqProgress[slot] != want {
					t.Fatalf("round %d: progress of slot %d diverges: %d vs %d",
						r, slot, want, restored.reqProgress[slot])
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
	if err := fresh().decodeState(ckpt.NewReader(bytes.NewReader(honest.bytes()))); err != nil {
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
	} {
		ss := streamOf(build())
		tc.corrupt(&ss)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fresh().decodeState(ckpt.NewReader(bytes.NewReader(ss.bytes())))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decodeState returned %v, want an error naming %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decodeState allocated %d bytes on a %d-byte stream", tc.name, grew, len(ss.bytes()))
		}
	}
}
