package bipartite

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
)

// matcherStream writes a Matcher checkpoint by hand, field for field as
// EncodeState does, so a test can put any value in any field. The int32
// lists are held as int64s, which I64s writes in I32s' layout, so that a
// test can also put a value outside int32 there. lefts is not written: it
// is the left space DecodeState is handed.
type matcherStream struct {
	numRights   int // the count field; the honest stream's is len(caps)
	caps        []int64
	lefts       int
	activeLefts []int64
	lists       [][]int64 // one per right
	dirty       []int64
	assignLog   []int64
}

func (ms matcherStream) bytes() []byte {
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	w.Int(ms.numRights)
	for _, c := range ms.caps {
		w.I64(c)
	}
	w.I64s(ms.activeLefts)
	for _, list := range ms.lists {
		w.I64s(list)
	}
	w.I64s(ms.dirty)
	w.I64s(ms.assignLog)
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func (ms matcherStream) reader() *ckpt.Reader { return ckpt.NewReader(bytes.NewReader(ms.bytes())) }

// honestStream is a consistent three-left, two-right state with a pending
// assignment log.
func honestStream() matcherStream {
	return matcherStream{
		numRights:   2,
		caps:        []int64{2, 1},
		lefts:       4,
		activeLefts: []int64{2, 0, 1},
		lists:       [][]int64{{2, 0}, {1}},
		assignLog:   []int64{1, 1, 0},
	}
}

// narrow is an honest stream's int32 list.
func narrow(s []int64) []int32 {
	out := make([]int32, len(s))
	for i, v := range s {
		out[i] = int32(v)
	}
	return out
}

func TestDecodeStateRebuildsLists(t *testing.T) {
	ms := honestStream()
	m := NewMatcher(ms.caps)
	m.LogAssignments(true)
	if err := m.DecodeState(ms.reader(), ms.lefts); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(completeAdj{}); err != nil {
		t.Fatal(err)
	}
	for r, want := range ms.lists {
		if got := m.AssignedLefts(r); !slices.Equal(got, narrow(want)) {
			t.Fatalf("right %d restored as %v, written %v", r, got, want)
		}
	}
	// The restored matcher writes back the bytes it read: the hand-written
	// layout above is EncodeState's, and re-linking the lists is not
	// assigning — the log holds exactly what the stream carried.
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	m.EncodeState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), ms.bytes()) {
		t.Fatal("decode → encode does not reproduce the stream")
	}
	if got := m.DrainAssigned(nil); !slices.Equal(got, narrow(ms.assignLog)) {
		t.Fatalf("assignment log restored as %v, written %v", got, ms.assignLog)
	}
}

func TestDecodeStateRejectsCorruptStreams(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(ms *matcherStream)
		want    string
	}{
		{"negative capacity", func(ms *matcherStream) { ms.caps[1] = -1 }, "capacity -1"},
		{"capacity past int32", func(ms *matcherStream) { ms.caps[0] = math.MaxInt32 + 1 }, "capacity 2147483648"},
		{"capacity that truncates to a valid one", func(ms *matcherStream) { ms.caps[0] = 1<<32 + 2 }, "capacity 4294967298"},
		{"list over capacity", func(ms *matcherStream) { ms.caps[0] = 1 }, "over capacity"},
		{"inactive left in a list", func(ms *matcherStream) { ms.lists[1] = []int64{3} }, "invalid left 3"},
		{"left in two lists", func(ms *matcherStream) { ms.lists[1] = []int64{0} }, "invalid left 0"},
		{"left out of range", func(ms *matcherStream) { ms.lists[1] = []int64{9} }, "invalid left 9"},
		{"negative left", func(ms *matcherStream) { ms.lists[1] = []int64{-1} }, "invalid left -1"},
		{"left listed active twice", func(ms *matcherStream) { ms.activeLefts = []int64{2, 0, 2} }, "invalid left 2"},
		{"active left outside the left space", func(ms *matcherStream) { ms.activeLefts[0] = 4 }, "invalid left 4"},
		// A value outside int32 is refused by the reader, not read back
		// wrapped: 2^32+1 would be left 1, which each of these fields
		// accepts (the dirty queue and the log are checked no further).
		{"list entry past int32", func(ms *matcherStream) { ms.lists[1] = []int64{1<<32 + 1} }, "4294967297 out of int32 range"},
		{"active left past int32", func(ms *matcherStream) { ms.activeLefts[2] = 1<<32 + 1 }, "4294967297 out of int32 range"},
		{"dirty left past int32", func(ms *matcherStream) { ms.dirty = []int64{1<<32 + 1} }, "4294967297 out of int32 range"},
		{"logged left past int32", func(ms *matcherStream) { ms.assignLog[0] = 1<<32 + 5 }, "4294967301 out of int32 range"},
		// The spec travels in the same file as the state, so the
		// fingerprint does not vouch for this count: it must be checked
		// against the matcher before anything is sized from it.
		{"right count 2^24", func(ms *matcherStream) { ms.numRights = 1 << 24 }, "16777216 rights, matcher has 2"},
		{"right count 2^31", func(ms *matcherStream) { ms.numRights = 1 << 31 }, "2147483648 rights, matcher has 2"},
		{"one right short", func(ms *matcherStream) { ms.numRights = 1 }, "1 rights, matcher has 2"},
	} {
		ms := honestStream()
		tc.corrupt(&ms)
		m := NewMatcher(honestStream().caps)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := m.DecodeState(ms.reader(), ms.lefts)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeState returned %v, want an error naming %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: DecodeState allocated %d bytes on a %d-byte stream", tc.name, grew, len(ms.bytes()))
		}
	}
}
