// Package ckpt is the varint binary codec under the engine's
// checkpoint/restore machinery (core.System.EncodeState and friends).
// Writer and Reader are error-sticky: after the first failure every call
// is a no-op and the error surfaces once at the end, so serialization
// code reads as a flat field list instead of an error ladder. Integers
// use unsigned varints (zig-zag for signed values), floats their IEEE
// bits, so state dominated by small counters and -1 sentinels stays
// compact even at millions of boxes.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// maxSliceLen bounds decoded slice lengths. Allocation is bounded by the
// elements that arrive (see firstCap), not by this.
const maxSliceLen = 1 << 32

// Writer serializes values to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	if w.room() {
		_, w.err = w.w.Write(binary.AppendUvarint(w.w.AvailableBuffer(), v))
	}
}

// I64 writes a signed varint (zig-zag).
func (w *Writer) I64(v int64) {
	if w.room() {
		_, w.err = w.w.Write(binary.AppendVarint(w.w.AvailableBuffer(), v))
	}
}

// room reports whether a varint may be written, flushing first if the
// buffer's free tail could not hold one. A varint is then encoded straight
// into that tail: a local array handed to Write would escape to the heap
// (bufio passes large writes through to the underlying io.Writer), one
// allocation per integer written.
func (w *Writer) room() bool {
	if w.err == nil && w.w.Available() < binary.MaxVarintLen64 {
		w.err = w.w.Flush()
	}
	return w.err == nil
}

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// I32 writes an int32 as a signed varint.
func (w *Writer) I32(v int32) { w.I64(int64(v)) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	var b uint64
	if v {
		b = 1
	}
	w.U64(b)
}

// F64 writes a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// I32s writes a length-prefixed []int32.
func (w *Writer) I32s(s []int32) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.I64(int64(v))
	}
}

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(s []int64) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.I64(v)
	}
}

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(s []int) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.I64(int64(v))
	}
}

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(s []float64) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.F64(v)
	}
}

// Bools writes a length-prefixed []bool.
func (w *Writer) Bools(s []bool) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.Bool(v)
	}
}

// Reader deserializes values written by Writer, in the same order.
type Reader struct {
	r     *bufio.Reader
	err   error
	words []uint64 // the slice readers' element scratch, reused across calls
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(fmt.Errorf("ckpt: %w", err))
		return 0
	}
	return v
}

// I64 reads a signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		r.fail(fmt.Errorf("ckpt: %w", err))
		return 0
	}
	return v
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.I64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U64() != 0 }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// sliceLen reads and bounds-checks a slice length prefix.
func (r *Reader) sliceLen() int {
	n := r.U64()
	if n > maxSliceLen {
		r.fail(fmt.Errorf("ckpt: slice length %d exceeds limit", n))
		return 0
	}
	return int(n)
}

// firstCap caps what a reader reserves before elements arrive: a count
// the stream does not back costs at most this many elements, and storage
// for a real one doubles as it fills.
const firstCap = 4096

// Records reads n records with read, stopping at the first error. The
// result grows as records arrive, so n is never trusted before the stream
// has backed it; a decoder reading a count of its own uses it instead of
// make.
func Records[T any](r *Reader, n int, read func() T) []T {
	if n <= 0 {
		return nil
	}
	s := make([]T, 0, min(n, firstCap))
	for len(s) < n && r.err == nil {
		if len(s) == cap(s) {
			s = slices.Grow(s, min(n-len(s), len(s)))
		}
		s = append(s, read())
	}
	return s
}

// readWords reads a length-prefixed slice's elements as raw uvarints into
// the reader's scratch, which grows like Records' result — in proportion
// to the elements actually present — and which later slices reuse.
// Varints the buffer already holds are decoded in place rather than a
// byte call at a time. It returns nil after an error.
func (r *Reader) readWords() []uint64 {
	n := r.sliceLen()
	words := r.words[:0]
	for len(words) < n && r.err == nil {
		if len(words) == cap(words) {
			words = slices.Grow(words, min(n-len(words), max(len(words), firstCap)))
		}
		buf, _ := r.r.Peek(r.r.Buffered())
		used, limit := 0, min(n, cap(words))
		for len(words) < limit {
			v, k := binary.Uvarint(buf[used:])
			if k <= 0 {
				break // the buffer ends inside this varint, or it overflows
			}
			words = append(words, v)
			used += k
		}
		if used > 0 {
			r.r.Discard(used) // cannot fail: the bytes are buffered
		} else {
			words = append(words, r.U64()) // refills the buffer, or fails
		}
	}
	r.words = words
	if r.err != nil {
		return nil
	}
	return words
}

// unzigzag reads a signed varint's unsigned form, as binary.Varint does.
func unzigzag(w uint64) int64 {
	if w&1 != 0 {
		return ^int64(w >> 1)
	}
	return int64(w >> 1)
}

// convert allocates a decoded slice once, at its exact length, from the
// words every element has already been read into.
func convert[T any](words []uint64, conv func(uint64) T) []T {
	if len(words) == 0 {
		return nil
	}
	s := make([]T, len(words))
	for i, w := range words {
		s[i] = conv(w)
	}
	return s
}

// Bytes reads a length-prefixed byte slice in chunks of at most firstCap
// bytes, so the buffer never runs ahead of what the stream holds by more
// than one chunk plus append's slack.
func (r *Reader) Bytes() []byte {
	n := r.sliceLen()
	if r.err != nil || n == 0 {
		return nil
	}
	var b []byte
	for len(b) < n {
		chunk := min(n-len(b), firstCap)
		b = slices.Grow(b, chunk)
		if _, err := io.ReadFull(r.r, b[len(b):len(b)+chunk]); err != nil {
			r.fail(fmt.Errorf("ckpt: %w", err))
			return nil
		}
		b = b[:len(b)+chunk]
	}
	return b
}

// I32s reads a length-prefixed []int32.
func (r *Reader) I32s() []int32 {
	return convert(r.readWords(), func(w uint64) int32 { return int32(unzigzag(w)) })
}

// I64s reads a length-prefixed []int64.
func (r *Reader) I64s() []int64 { return convert(r.readWords(), unzigzag) }

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int {
	return convert(r.readWords(), func(w uint64) int { return int(unzigzag(w)) })
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 { return convert(r.readWords(), math.Float64frombits) }

// Bools reads a length-prefixed []bool.
func (r *Reader) Bools() []bool {
	return convert(r.readWords(), func(w uint64) bool { return w != 0 })
}
