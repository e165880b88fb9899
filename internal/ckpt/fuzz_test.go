package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/iotest"
)

// The codec is held to encoding/binary. refReader reads a stream as the
// codec's contract says, one binary.ReadUvarint or ReadVarint at a time
// over a bytes.Reader, with the codec's own rules restated: int32 values
// and slice lengths are range-checked, a slice read fails whole, and every
// error is sticky and prefixed "ckpt: ".
type refReader struct {
	r   *bytes.Reader
	err error
}

func (rr *refReader) fail(err error) {
	if rr.err == nil {
		rr.err = err
	}
}

func (rr *refReader) u64() uint64 {
	if rr.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(rr.r)
	if err != nil {
		rr.fail(fmt.Errorf("ckpt: %w", err))
		return 0
	}
	return v
}

func (rr *refReader) i64() int64 {
	if rr.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(rr.r)
	if err != nil {
		rr.fail(fmt.Errorf("ckpt: %w", err))
		return 0
	}
	return v
}

func (rr *refReader) i32() int32 {
	v := rr.i64()
	if v != int64(int32(v)) {
		rr.fail(fmt.Errorf("ckpt: value %d out of int32 range", v))
		return 0
	}
	return int32(v)
}

func (rr *refReader) length() int {
	n := rr.u64()
	if n > 1<<32 {
		rr.fail(fmt.Errorf("ckpt: slice length %d exceeds limit", n))
		return 0
	}
	return int(n)
}

// refSlice reads a length-prefixed slice element by element; nil after an
// error or for no elements.
func refSlice[T any](rr *refReader, read func() T) []T {
	n := rr.length()
	var s []T
	for i := 0; i < n && rr.err == nil; i++ {
		s = append(s, read())
	}
	if rr.err != nil {
		return nil
	}
	return s
}

func (rr *refReader) bytes() []byte {
	n := rr.length()
	if rr.err != nil || n == 0 {
		return nil
	}
	if n > rr.r.Len() { // what io.ReadFull would report, without the buffer
		err := io.ErrUnexpectedEOF
		if rr.r.Len() == 0 {
			err = io.EOF
		}
		rr.fail(fmt.Errorf("ckpt: %w", err))
		return nil
	}
	b := make([]byte, n)
	io.ReadFull(rr.r, b)
	return b
}

// The operations a fuzz input mixes. An op byte's low nibble is the
// operation and its high nibble h repeats it 2^h times.
const (
	opU64 = iota
	opI64
	opI32
	opInt
	opBool
	opF64
	opBytes
	opI32s
	opI64s
	opInts
	opF64s
	opBools
	opAppendI32s
	numOps
)

func repeats(op byte) int { return 1 << (op >> 4) }

// readBoth applies one read to the codec and to the reference and returns
// both results, floats as their bits so that NaNs compare.
func readBoth(kind int, r *Reader, rr *refReader) (got, want any) {
	bits := func(s []float64) []uint64 {
		if s == nil {
			return nil
		}
		w := make([]uint64, len(s))
		for i, f := range s {
			w[i] = math.Float64bits(f)
		}
		return w
	}
	switch kind {
	case opU64:
		return r.U64(), rr.u64()
	case opI64:
		return r.I64(), rr.i64()
	case opI32:
		return r.I32(), rr.i32()
	case opInt:
		return r.Int(), int(rr.i64())
	case opBool:
		return r.Bool(), rr.u64() != 0
	case opF64:
		return math.Float64bits(r.F64()), rr.u64()
	case opBytes:
		return r.Bytes(), rr.bytes()
	case opI32s:
		return r.I32s(), refSlice(rr, rr.i32)
	case opI64s:
		return r.I64s(), refSlice(rr, rr.i64)
	case opInts:
		return r.Ints(), refSlice(rr, func() int { return int(rr.i64()) })
	case opF64s:
		return bits(r.F64s()), refSlice(rr, rr.u64)
	case opBools:
		return r.Bools(), refSlice(rr, func() bool { return rr.u64() != 0 })
	default: // opAppendI32s, onto a slice that holds something already
		want := []int32{-7}
		if s := refSlice(rr, rr.i32); rr.err == nil {
			want = append(want, s...)
		}
		return r.AppendI32s([]int32{-7}), want
	}
}

// checkDecode reads stream through the codec, fed by the reader mode
// picks, and through the reference, in the order ops gives, and requires
// the same value from every read and the same first error.
func checkDecode(t *testing.T, ops, stream []byte, mode uint8) {
	var src io.Reader = bytes.NewReader(stream)
	switch mode % 3 {
	case 1:
		src = iotest.OneByteReader(src)
	case 2:
		src = iotest.HalfReader(src)
	}
	r, rr := NewReader(src), &refReader{r: bytes.NewReader(stream)}
	for i, op := range ops {
		kind := int(op&15) % numOps
		for k := 0; k < repeats(op); k++ {
			got, want := readBoth(kind, r, rr)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d (kind %d), repeat %d: codec read %v, encoding/binary %v", i, kind, k, got, want)
			}
			if (r.Err() == nil) != (rr.err == nil) || rr.err != nil && r.Err().Error() != rr.err.Error() {
				t.Fatalf("op %d (kind %d), repeat %d: codec error %v, encoding/binary %v", i, kind, k, r.Err(), rr.err)
			}
			if rr.err != nil {
				break
			}
		}
	}
}

// values draws the values an encoding writes from a byte string, cycling
// through it eight bytes at a time and shifting by a drawn amount, so that
// varints of every length come up.
type values struct {
	data []byte
	i    int
}

func (vs *values) next() uint64 {
	if len(vs.data) == 0 {
		return 0
	}
	var v uint64
	for range 8 {
		v = v<<8 | uint64(vs.data[vs.i%len(vs.data)])
		vs.i++
	}
	return v >> (v & 63)
}

// maxEncoded bounds the elements one fuzz input writes: enough to fill
// the writer's buffer several times over.
const maxEncoded = 1 << 16

// checkEncode writes the values drawn from data through the codec, in the
// order ops gives, and requires exactly the bytes of binary.AppendUvarint
// and AppendVarint.
func checkEncode(t *testing.T, ops, data []byte) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []byte
	vs := &values{data: data}
	elems := 0
	for _, op := range ops {
		kind := int(op&15) % numOps
		for k := 0; k < repeats(op) && elems < maxEncoded; k++ {
			v := vs.next()
			n := int(v % 5000)
			elems++
			switch kind {
			case opU64:
				w.U64(v)
				want = binary.AppendUvarint(want, v)
			case opI64:
				w.I64(int64(v))
				want = binary.AppendVarint(want, int64(v))
			case opI32:
				w.I32(int32(v))
				want = binary.AppendVarint(want, int64(int32(v)))
			case opInt:
				w.Int(int(v))
				want = binary.AppendVarint(want, int64(int(v)))
			case opBool:
				w.Bool(v&1 == 1)
				want = binary.AppendUvarint(want, v&1)
			case opF64:
				w.F64(math.Float64frombits(v))
				want = binary.AppendUvarint(want, v)
			case opBytes:
				b := make([]byte, n*20)
				for i := range b {
					b[i] = byte(vs.next())
				}
				w.Bytes(b)
				want = append(binary.AppendUvarint(want, uint64(len(b))), b...)
				elems += len(b) / 8
			default:
				want = binary.AppendUvarint(want, uint64(n))
				elems += n
				switch kind {
				case opI32s, opAppendI32s:
					s := make([]int32, n)
					for i := range s {
						s[i] = int32(vs.next())
						want = binary.AppendVarint(want, int64(s[i]))
					}
					w.I32s(s)
				case opI64s:
					s := make([]int64, n)
					for i := range s {
						s[i] = int64(vs.next())
						want = binary.AppendVarint(want, s[i])
					}
					w.I64s(s)
				case opInts:
					s := make([]int, n)
					for i := range s {
						s[i] = int(vs.next())
						want = binary.AppendVarint(want, int64(s[i]))
					}
					w.Ints(s)
				case opF64s:
					s := make([]float64, n)
					for i := range s {
						u := vs.next()
						s[i] = math.Float64frombits(u)
						want = binary.AppendUvarint(want, u)
					}
					w.F64s(s)
				case opBools:
					s := make([]bool, n)
					for i := range s {
						s[i] = vs.next()&1 == 1
						want = binary.AppendUvarint(want, boolWord(s[i]))
					}
					w.Bools(s)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		at := 0
		for at < min(buf.Len(), len(want)) && buf.Bytes()[at] == want[at] {
			at++
		}
		t.Fatalf("codec wrote %d bytes, encoding/binary %d; first difference at byte %d", buf.Len(), len(want), at)
	}
}

// codecSeed is one FuzzCodec input. The stream it decodes is data with
// pad zero bytes — pad one-byte varints of value 0 — inserted at offset
// at, so that a small input can reach past the 64 KiB window.
type codecSeed struct {
	ops, data []byte
	pad, at   uint16
	mode      uint8
}

func padded(data []byte, pad, at uint16) []byte {
	cut := min(int(at), len(data))
	stream := append(make([]byte, 0, len(data)+int(pad)), data[:cut]...)
	stream = append(stream, make([]byte, pad)...)
	return append(stream, data[cut:]...)
}

// codecSeeds are the corpus FuzzCodec starts from, also replayed by plain
// go test: varints split across the 64 KiB window, by scalar reads and
// inside a slice; an 11-byte varint that overflows 64 bits, alone and
// inside a slice; values just outside int32; truncations; and a mix of
// every operation for the encoder.
func codecSeeds() []codecSeed {
	rep := func(op byte, h byte) byte { return h<<4 | op }
	// 65531 one-byte varints, then a ten-byte one that straddles byte
	// 65536, then nothing: the 65533rd read is an EOF.
	split := binary.AppendUvarint(nil, math.MaxUint64)
	// One slice of 65532 words, after a three-byte length, whose last is
	// a three-byte varint straddling byte 65536; and the same slice one
	// word short.
	slice := binary.AppendVarint(binary.AppendUvarint(nil, 65532), 1<<20)
	short := binary.AppendVarint(binary.AppendUvarint(nil, 65533), 1<<20)
	// Eleven bytes with the continuation bit on ten: binary refuses it.
	overflow := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
	// 2^32+5 must not read back as 5.
	wide := binary.AppendVarint(nil, 1<<32+5)
	mix := make([]byte, 0, numOps)
	for op := range byte(numOps) {
		mix = append(mix, rep(op, op%3))
	}
	return []codecSeed{
		{ops: []byte{rep(opU64, 15), rep(opU64, 15)}, data: split, pad: bufSize - 5},
		{ops: []byte{rep(opI64, 15), rep(opI64, 15)}, data: split, pad: bufSize - 5, mode: 2},
		{ops: []byte{opI64s}, data: slice, pad: bufSize - 5, at: 3},
		{ops: []byte{opI32s, opU64}, data: slice, pad: bufSize - 5, at: 3, mode: 1},
		{ops: []byte{opAppendI32s}, data: short, pad: bufSize - 5, at: 3},
		{ops: []byte{opU64}, data: overflow},
		{ops: []byte{opI64s}, data: append([]byte{1}, overflow...), mode: 1},
		{ops: []byte{opBytes}, data: append(binary.AppendUvarint(nil, 1<<33), overflow...)},
		{ops: []byte{opI32}, data: wide},
		{ops: []byte{opI32s}, data: append(binary.AppendUvarint(nil, 2), append(binary.AppendVarint(nil, 3), wide...)...)},
		{ops: []byte{opI32s}, data: append(binary.AppendUvarint(nil, 2), binary.AppendVarint(wide, math.MinInt32-1)...), mode: 2},
		{ops: []byte{opBytes, opU64}, data: append(binary.AppendUvarint(nil, 5), "abc"...)},
		{ops: mix, data: []byte("the quick brown fox jumps over the lazy dog, 0123456789")},
		{ops: mix, data: overflow, pad: 300, at: 4, mode: 1},
	}
}

// FuzzCodec holds the codec to encoding/binary both ways: decoding any
// byte string through any mix of reads gives binary's values and its
// first error, and encoding any sequence of values gives binary's bytes.
func FuzzCodec(f *testing.F) {
	for _, s := range codecSeeds() {
		f.Add(s.ops, s.data, s.pad, s.at, s.mode)
	}
	f.Fuzz(func(t *testing.T, ops, data []byte, pad, at uint16, mode uint8) {
		checkDecode(t, ops, padded(data, pad, at), mode)
		checkEncode(t, ops, data)
	})
}

// boolWord is the word a bool is written as.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
