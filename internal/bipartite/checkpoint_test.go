package bipartite

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
)

// matcherStream writes a Matcher checkpoint by hand, field for field as
// EncodeState does, so a test can put any value in any field.
type matcherStream struct {
	caps        []int64
	active      []bool
	activeLefts []int32
	lists       [][]int32 // one per right
	dirty       []int32
	assignLog   []int32
	touchLog    []int32
}

func (ms matcherStream) bytes() []byte {
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	w.Int(len(ms.caps))
	for _, c := range ms.caps {
		w.I64(c)
	}
	w.Bools(ms.active)
	w.I32s(ms.activeLefts)
	for _, list := range ms.lists {
		w.I32s(list)
	}
	w.I32s(ms.dirty)
	w.I32s(ms.assignLog)
	w.I32s(ms.touchLog)
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func (ms matcherStream) reader() *ckpt.Reader { return ckpt.NewReader(bytes.NewReader(ms.bytes())) }

// honestStream is a consistent three-left, two-right state with pending
// logs, as SetCapacity between rounds leaves them.
func honestStream() matcherStream {
	return matcherStream{
		caps:        []int64{2, 1},
		active:      []bool{true, true, true, false},
		activeLefts: []int32{2, 0, 1},
		lists:       [][]int32{{2, 0}, {1}},
		assignLog:   []int32{1, 1, 0},
		touchLog:    []int32{1, 0, 0},
	}
}

func TestDecodeStateRebuildsLists(t *testing.T) {
	ms := honestStream()
	m := NewMatcher(nil)
	m.LogAssignments(true)
	m.LogTouches(true)
	if err := m.DecodeState(ms.reader()); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(completeAdj{}); err != nil {
		t.Fatal(err)
	}
	for r, want := range ms.lists {
		if got := m.AssignedLefts(r); !slices.Equal(got, want) {
			t.Fatalf("right %d restored as %v, written %v", r, got, want)
		}
	}
	// The restored matcher writes back the bytes it read: the hand-written
	// layout above is EncodeState's, and re-linking the lists is not
	// assigning — the logs hold exactly what the stream carried.
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	m.EncodeState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), ms.bytes()) {
		t.Fatal("decode → encode does not reproduce the stream")
	}
	if got := m.DrainAssigned(nil); !slices.Equal(got, ms.assignLog) {
		t.Fatalf("assignment log restored as %v, written %v", got, ms.assignLog)
	}
	if got := m.DrainTouched(nil); !slices.Equal(got, ms.touchLog) {
		t.Fatalf("touch log restored as %v, written %v", got, ms.touchLog)
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
		{"inactive left in a list", func(ms *matcherStream) { ms.lists[1] = []int32{3} }, "invalid left 3"},
		{"left in two lists", func(ms *matcherStream) { ms.lists[1] = []int32{0} }, "invalid left 0"},
		{"left out of range", func(ms *matcherStream) { ms.lists[1] = []int32{9} }, "invalid left 9"},
		{"negative left", func(ms *matcherStream) { ms.lists[1] = []int32{-1} }, "invalid left -1"},
	} {
		ms := honestStream()
		tc.corrupt(&ms)
		err := NewMatcher(nil).DecodeState(ms.reader())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeState returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
