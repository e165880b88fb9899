// Package ckpt is the varint binary codec under the engine's
// checkpoint/restore machinery (core.System.EncodeState and friends).
// Writer and Reader are error-sticky: after the first failure every call
// is a no-op and the error surfaces once at the end, so serialization
// code reads as a flat field list instead of an error ladder. Integers
// use unsigned varints (zig-zag for signed values), floats their IEEE
// bits, so state dominated by small counters and -1 sentinels stays
// compact even at millions of boxes. The bytes are exactly those of
// encoding/binary's AppendUvarint and AppendVarint, value after value.
//
// Both ends own a 64 KiB window and work in it at memory speed: a writer
// encodes varints straight into its buffer and hands the buffer to the
// stream when it fills, and a reader decodes from the bytes its window
// already holds, refilling only when fewer than one varint's worth are
// left. Neither ever holds a checkpoint whole.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// maxSliceLen bounds decoded slice lengths. Allocation is bounded by the
// elements that arrive (see firstCap), not by this.
const maxSliceLen = 1 << 32

// bufSize is the size of a Writer's buffer and of a Reader's window.
const bufSize = 1 << 16

// Writer serializes values to an underlying stream.
type Writer struct {
	w   io.Writer
	buf []byte // len(buf) == bufSize; buf[:n] waits for the stream
	n   int
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, bufSize)}
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	w.flush()
	return w.err
}

// flush hands the buffered bytes to the stream and empties the buffer.
// After an error it only empties it, so every later write is a no-op.
func (w *Writer) flush() {
	if w.err == nil && w.n > 0 {
		k, err := w.w.Write(w.buf[:w.n])
		if err == nil && k < w.n {
			err = io.ErrShortWrite
		}
		w.err = err
	}
	w.n = 0
}

// room returns how many varints of at most size bytes the buffer can take
// as it stands, flushing first if it cannot take one.
func (w *Writer) room(size int) int {
	if len(w.buf)-w.n < size {
		w.flush()
	}
	return (len(w.buf) - w.n) / size
}

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	if len(w.buf)-w.n < binary.MaxVarintLen64 {
		w.flush()
	}
	w.n += binary.PutUvarint(w.buf[w.n:], v)
}

// zigzag maps a signed value to the unsigned word binary.PutVarint writes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// I64 writes a signed varint (zig-zag).
func (w *Writer) I64(v int64) { w.U64(zigzag(v)) }

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.U64(zigzag(int64(v))) }

// I32 writes an int32 as a signed varint.
func (w *Writer) I32(v int32) { w.U64(zigzag(int64(v))) }

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
	for len(b) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		k := copy(w.buf[w.n:], b)
		w.n += k
		b = b[k:]
	}
}

// integer is the element type of the signed slice writers.
type integer interface{ ~int | ~int32 | ~int64 }

// writeSigned writes a length-prefixed slice of signed values, one chunk
// of elements at a time: a chunk is as many as the buffer surely holds at
// size bytes each, so the loop over it checks for room once.
func writeSigned[T integer](w *Writer, s []T, size int) {
	w.U64(uint64(len(s)))
	for len(s) > 0 {
		chunk := s[:min(len(s), w.room(size))]
		buf, n := w.buf, w.n
		for _, v := range chunk {
			if u := zigzag(int64(v)); u < 0x80 {
				buf[n] = byte(u)
				n++
			} else {
				n += binary.PutUvarint(buf[n:], u)
			}
		}
		w.n = n
		s = s[len(chunk):]
	}
}

// maxVarintLen32 is the longest varint of a zig-zagged int32.
const maxVarintLen32 = 5

// I32s writes a length-prefixed []int32.
func (w *Writer) I32s(s []int32) { writeSigned(w, s, maxVarintLen32) }

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(s []int64) { writeSigned(w, s, binary.MaxVarintLen64) }

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(s []int) { writeSigned(w, s, binary.MaxVarintLen64) }

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(s []float64) {
	w.U64(uint64(len(s)))
	for len(s) > 0 {
		chunk := s[:min(len(s), w.room(binary.MaxVarintLen64))]
		buf, n := w.buf, w.n
		for _, v := range chunk {
			n += binary.PutUvarint(buf[n:], math.Float64bits(v))
		}
		w.n = n
		s = s[len(chunk):]
	}
}

// Bools writes a length-prefixed []bool, one byte each.
func (w *Writer) Bools(s []bool) {
	w.U64(uint64(len(s)))
	for len(s) > 0 {
		chunk := s[:min(len(s), w.room(1))]
		buf := w.buf[w.n : w.n+len(chunk)]
		for i, v := range chunk {
			buf[i] = 0
			if v {
				buf[i] = 1
			}
		}
		w.n += len(chunk)
		s = s[len(chunk):]
	}
}

// Reader deserializes values written by Writer, in the same order.
type Reader struct {
	r        io.Reader
	buf      []byte // the window: buf[pos:end] is read but not yet decoded
	pos, end int
	rerr     error // the stream's error (io.EOF at its end), once it returned one
	err      error
	words    []uint64 // the slice readers' element scratch, reused across calls
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, bufSize)}
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// fail records the first error and empties the window, which no read
// refills once an error is recorded.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.pos, r.end = 0, 0
}

// maxEmptyReads bounds the reads in a row that may return no bytes and no
// error before fill gives up, as bufio does.
const maxEmptyReads = 100

// fill moves the undecoded bytes to the front of the window and reads
// until it holds at least want bytes or the stream has returned an error.
func (r *Reader) fill(want int) {
	if r.pos > 0 {
		r.end = copy(r.buf, r.buf[r.pos:r.end])
		r.pos = 0
	}
	for empty := 0; r.end < want && r.rerr == nil; {
		k, err := r.r.Read(r.buf[r.end:])
		r.end += k
		r.rerr = err
		if k > 0 {
			empty = 0
		} else if empty++; empty == maxEmptyReads {
			r.rerr = io.ErrNoProgress
		}
	}
}

// U64 reads an unsigned varint. A one-byte varint, the common case, is
// read before anything else is looked at: the window is empty after an
// error, so it is never one.
func (r *Reader) U64() uint64 {
	if p := r.pos; p < r.end && r.buf[p] < 0x80 {
		r.pos = p + 1
		return uint64(r.buf[p])
	}
	if r.err != nil {
		return 0
	}
	if r.end-r.pos < binary.MaxVarintLen64 {
		r.fill(binary.MaxVarintLen64)
	}
	v, k := binary.Uvarint(r.buf[r.pos:r.end])
	if k <= 0 {
		r.failVarint()
		return 0
	}
	r.pos += k
	return v
}

// failVarint records why the varint at the window's start does not
// decode. The window holds its first MaxVarintLen64 bytes or the stream's
// whole tail, so binary.ReadUvarint over the window fails exactly as it
// would have over the stream — unless the stream ended on an error of its
// own, which is then the one reported.
func (r *Reader) failVarint() {
	_, err := binary.ReadUvarint(bytes.NewReader(r.buf[r.pos:r.end]))
	if (err == io.EOF || err == io.ErrUnexpectedEOF) && r.rerr != io.EOF {
		err = r.rerr
	}
	r.fail(fmt.Errorf("ckpt: %w", err))
}

// unzigzag reads a signed varint's unsigned form, as binary.Varint does.
func unzigzag(w uint64) int64 {
	if w&1 != 0 {
		return ^int64(w >> 1)
	}
	return int64(w >> 1)
}

// I64 reads a signed varint.
func (r *Reader) I64() int64 { return unzigzag(r.U64()) }

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// maxWord32 is the largest zig-zagged int32.
const maxWord32 = math.MaxUint32

// I32 reads an int32. A value outside int32 is an error, not a wrapped
// in-range number.
func (r *Reader) I32() int32 {
	w := r.U64()
	if w > maxWord32 {
		r.failRange(w)
		return 0
	}
	return int32(unzigzag(w))
}

// failRange records a signed value that does not fit an int32.
func (r *Reader) failRange(w uint64) {
	r.fail(fmt.Errorf("ckpt: value %d out of int32 range", unzigzag(w)))
}

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
// to the elements actually present — and which later slices reuse. An
// element above limit is an error (a zig-zagged value outside int32, for
// limit maxWord32). Varints the window holds whole are decoded in one
// loop; the last few before a refill go through U64. It returns nil after
// an error.
func (r *Reader) readWords(limit uint64) []uint64 {
	n := r.sliceLen()
	words := r.words[:0]
	for len(words) < n && r.err == nil {
		if len(words) == cap(words) {
			words = slices.Grow(words, min(n-len(words), max(len(words), firstCap)))
		}
		i, stop := len(words), min(n, cap(words))
		words = words[:stop]
		buf, pos := r.buf[:r.end], r.pos
		for last := len(buf) - binary.MaxVarintLen64; i < stop && pos <= last; i++ {
			v, k := uint64(buf[pos]), 1
			if v >= 0x80 {
				if v, k = binary.Uvarint(buf[pos:]); k <= 0 {
					break // an overflowing varint: U64 below reports it
				}
			}
			if v > limit {
				break
			}
			words[i] = v
			pos += k
		}
		words, r.pos = words[:i], pos
		if i < stop {
			v := r.U64() // refills the window, or fails
			if v > limit {
				r.failRange(v)
			}
			words = append(words, v)
		}
	}
	r.words = words
	if r.err != nil {
		return nil
	}
	return words
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

// Bytes reads a length-prefixed byte slice. The result grows by at most
// firstCap bytes at a time, so it never runs ahead of what the stream
// holds by more than one chunk plus append's slack. A stream that ends
// early fails as io.ReadFull would: io.EOF if no byte arrived, else
// io.ErrUnexpectedEOF.
func (r *Reader) Bytes() []byte {
	n := r.sliceLen()
	if r.err != nil || n == 0 {
		return nil
	}
	var b []byte
	for len(b) < n {
		if r.pos == r.end {
			r.fill(1)
			if r.pos == r.end {
				err := r.rerr
				if err == io.EOF && len(b) > 0 {
					err = io.ErrUnexpectedEOF
				}
				r.fail(fmt.Errorf("ckpt: %w", err))
				return nil
			}
		}
		chunk := min(n-len(b), firstCap, r.end-r.pos)
		b = append(slices.Grow(b, chunk), r.buf[r.pos:r.pos+chunk]...)
		r.pos += chunk
	}
	return b
}

// AppendI32s reads a length-prefixed []int32 and appends its elements to
// dst, so that a decoder reading many short slices can reuse one buffer.
// After an error it returns dst unchanged.
func (r *Reader) AppendI32s(dst []int32) []int32 {
	words := r.readWords(maxWord32)
	n := len(dst)
	dst = slices.Grow(dst, len(words))[:n+len(words)]
	for i, w := range words {
		dst[n+i] = int32(unzigzag(w))
	}
	return dst
}

// I32s reads a length-prefixed []int32. A value outside int32 is an
// error, not a wrapped in-range number.
func (r *Reader) I32s() []int32 { return r.AppendI32s(nil) }

// I64s reads a length-prefixed []int64.
func (r *Reader) I64s() []int64 { return convert(r.readWords(math.MaxUint64), unzigzag) }

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int {
	return convert(r.readWords(math.MaxUint64), func(w uint64) int { return int(unzigzag(w)) })
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	return convert(r.readWords(math.MaxUint64), math.Float64frombits)
}

// Bools reads a length-prefixed []bool.
func (r *Reader) Bools() []bool {
	return convert(r.readWords(math.MaxUint64), func(w uint64) bool { return w != 0 })
}
