package ckpt

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(0)
	w.U64(math.MaxUint64)
	w.I64(-1)
	w.I64(math.MinInt64)
	w.Int(42)
	w.I32(-7)
	w.Bool(true)
	w.Bool(false)
	w.F64(-0.5)
	w.F64(math.Inf(1))
	w.Bytes([]byte("hello"))
	w.Bytes(nil)
	w.I32s([]int32{-1, 0, 1 << 30})
	w.I64s([]int64{math.MinInt64, math.MaxInt64})
	w.Ints([]int{3, 2, 1})
	w.F64s([]float64{1.5, -2.25})
	w.Bools([]bool{true, false, true})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.U64(); got != 0 {
		t.Fatalf("U64: %d", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Fatalf("U64 max: %d", got)
	}
	if got := r.I64(); got != -1 {
		t.Fatalf("I64: %d", got)
	}
	if got := r.I64(); got != math.MinInt64 {
		t.Fatalf("I64 min: %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Fatalf("Int: %d", got)
	}
	if got := r.I32(); got != -7 {
		t.Fatalf("I32: %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool order")
	}
	if got := r.F64(); got != -0.5 {
		t.Fatalf("F64: %v", got)
	}
	if got := r.F64(); !math.IsInf(got, 1) {
		t.Fatalf("F64 inf: %v", got)
	}
	if got := r.Bytes(); string(got) != "hello" {
		t.Fatalf("Bytes: %q", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("nil Bytes: %v", got)
	}
	if got := r.I32s(); !reflect.DeepEqual(got, []int32{-1, 0, 1 << 30}) {
		t.Fatalf("I32s: %v", got)
	}
	if got := r.I64s(); !reflect.DeepEqual(got, []int64{math.MinInt64, math.MaxInt64}) {
		t.Fatalf("I64s: %v", got)
	}
	if got := r.Ints(); !reflect.DeepEqual(got, []int{3, 2, 1}) {
		t.Fatalf("Ints: %v", got)
	}
	if got := r.F64s(); !reflect.DeepEqual(got, []float64{1.5, -2.25}) {
		t.Fatalf("F64s: %v", got)
	}
	if got := r.Bools(); !reflect.DeepEqual(got, []bool{true, false, true}) {
		t.Fatalf("Bools: %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderStickyErrorOnTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64s(make([]int64, 100))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()[:10]))
	_ = r.I64s()
	if r.Err() == nil {
		t.Fatal("truncated slice decoded without error")
	}
	// Error must stick: further reads are no-ops, not fresh attempts.
	first := r.Err()
	_ = r.U64()
	_ = r.Bytes()
	if r.Err() != first {
		t.Fatalf("error did not stick: %v then %v", first, r.Err())
	}
}

func TestReaderRejectsHugeSliceLen(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(math.MaxUint64) // absurd length prefix
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.I32s(); got != nil || r.Err() == nil {
		t.Fatalf("huge slice length accepted: %d elems, err %v", len(got), r.Err())
	}
}

func TestEmptyStream(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	_ = r.U64()
	if r.Err() == nil {
		t.Fatal("read from empty stream succeeded")
	}
}

// TestReadersAllocateWhatTheStreamHolds gives every slice reader a length
// prefix of 2^31 with nothing behind it. Each must fail on the missing
// bytes having allocated a bounded first chunk, not the 2^31 elements the
// prefix asks for.
func TestReadersAllocateWhatTheStreamHolds(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1 << 31)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		read func(r *Reader)
	}{
		{"Bytes", func(r *Reader) { r.Bytes() }},
		{"I32s", func(r *Reader) { r.I32s() }},
		{"I64s", func(r *Reader) { r.I64s() }},
		{"Ints", func(r *Reader) { r.Ints() }},
		{"F64s", func(r *Reader) { r.F64s() }},
		{"Bools", func(r *Reader) { r.Bools() }},
	} {
		r := NewReader(bytes.NewReader(buf.Bytes()))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.read(r)
		runtime.ReadMemStats(&after)
		if r.Err() == nil {
			t.Errorf("%s: a %d-byte stream decoded a 2^31-element slice", tc.name, buf.Len())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes on a %d-byte stream", tc.name, grew, buf.Len())
		}
	}
}

// TestSlicesSpanningManyBuffers reads slices far longer than the reader's
// 64 KB buffer, with varints of every length, so that elements are decoded
// from the buffer in bulk, across refills, and straddling its end.
func TestSlicesSpanningManyBuffers(t *testing.T) {
	i64 := make([]int64, 100_000)
	f64 := make([]float64, 30_000)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range i64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		i64[i] = int64(x) >> (x % 64) // magnitudes of every varint length, both signs
	}
	for i := range f64 {
		f64[i] = float64(i64[i]) / 3
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64s(i64)
	w.F64s(f64)
	w.I64s(i64[:3])
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.I64s(); !reflect.DeepEqual(got, i64) {
		t.Fatal("I64s did not round-trip")
	}
	if got := r.F64s(); !reflect.DeepEqual(got, f64) {
		t.Fatal("F64s did not round-trip")
	}
	if got := r.I64s(); !reflect.DeepEqual(got, i64[:3]) || r.Err() != nil {
		t.Fatalf("short slice after long ones: %v, %v", got, r.Err())
	}
}

// Writing an integer must not allocate: a checkpoint of a large system is
// millions of them.
func TestWritersDoNotAllocate(t *testing.T) {
	w := NewWriter(io.Discard)
	values := []int32{-1, 0, 1, 1 << 20, math.MinInt32, math.MaxInt32}
	var v uint64
	for _, tc := range []struct {
		name  string
		write func()
	}{
		{"U64", func() { v = v*31 + 7; w.U64(v) }},
		{"I64", func() { v = v*31 + 7; w.I64(-int64(v >> 1)) }},
		{"I32s", func() { w.I32s(values) }},
	} {
		// Enough runs to cross the 64 KiB buffer several times.
		if got := testing.AllocsPerRun(20000, tc.write); got != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, got)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}
