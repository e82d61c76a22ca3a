// Package codec implements the length-prefixed varint / fixed-width
// binary primitives under the dataset's columnar snapshot format: an
// error-sticky Writer that counts every byte it emits (so section tables
// can declare exact payload lengths) and a bounds-checked Reader over an
// in-memory buffer that turns any short read into ErrTruncated instead
// of garbage. Integers use varint/uvarint encoding, fixed-width values
// little-endian, and byte strings a uvarint length prefix.
//
// The primitives are deliberately dumb: framing (magic headers, section
// tables, footers) belongs to the caller, which is what lets the dataset
// snapshot declare row counts up front and detect truncation by
// construction.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// Errors reported by Reader. Both are sticky: the first failure latches
// and every later call returns the zero value.
var (
	// ErrTruncated marks input that ended before a declared value.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrMalformed marks input that is long enough but undecodable
	// (varint overflow, length prefix past the buffer end).
	ErrMalformed = errors.New("codec: malformed input")
)

// Writer encodes primitives onto an io.Writer through an internal
// buffer. Errors are sticky: after the first write failure every call is
// a no-op and Err/Flush report the failure, so encode paths can run
// check-free and test once at the end.
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewWriter returns a Writer buffering onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<20)}
}

// Offset returns the total bytes written so far (including bytes still
// in the buffer) — the would-be file offset of the next value.
func (w *Writer) Offset() int64 { return w.n }

// Err returns the first write error, or nil.
func (w *Writer) Err() error { return w.err }

// Flush drains the buffer and returns the first error seen.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.n += int64(n)
	w.err = err
}

// The fixed-width and varint writers append straight into the
// bufio.Writer's free space, so encoding a value never allocates.

// Uvarint writes v in unsigned varint encoding.
func (w *Writer) Uvarint(v uint64) {
	w.write(binary.AppendUvarint(w.w.AvailableBuffer(), v))
}

// Varint writes v in zig-zag varint encoding.
func (w *Writer) Varint(v int64) {
	w.write(binary.AppendVarint(w.w.AvailableBuffer(), v))
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.write(append(w.w.AvailableBuffer(), v)) }

// U16 writes a fixed-width little-endian uint16.
func (w *Writer) U16(v uint16) {
	w.write(binary.LittleEndian.AppendUint16(w.w.AvailableBuffer(), v))
}

// U64 writes a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.write(binary.LittleEndian.AppendUint64(w.w.AvailableBuffer(), v))
}

// F64 writes the IEEE-754 bits of v, fixed-width little-endian.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes v as one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw writes p with no length prefix (fixed-width columns).
func (w *Writer) Raw(p []byte) { w.write(p) }

// Bytes writes p with a uvarint length prefix.
func (w *Writer) Bytes(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.write(p)
}

// String writes s with a uvarint length prefix, without copying.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.RawString(s)
}

// RawString writes s with no length prefix, without copying.
func (w *Writer) RawString(s string) {
	if w.err != nil {
		return
	}
	n, err := w.w.WriteString(s)
	w.n += int64(n)
	w.err = err
}

// Reader decodes primitives from an in-memory buffer. Every read is
// bounds-checked; the first failure latches (ErrTruncated or
// ErrMalformed) and all later calls return zero values, so decode paths
// can run check-free and test Err once per row or section.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader aliases b; callers must
// not mutate it while decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Offset returns how many bytes have been consumed.
func (r *Reader) Offset() int { return r.off }

// Remaining returns how many bytes are left.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n == 0 {
		r.fail(ErrTruncated)
		return 0
	}
	if n < 0 {
		r.fail(ErrMalformed)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n == 0 {
		r.fail(ErrTruncated)
		return 0
	}
	if n < 0 {
		r.fail(ErrMalformed)
		return 0
	}
	r.off += n
	return v
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U16 reads a fixed-width little-endian uint16.
func (r *Reader) U16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// F64 reads a fixed-width IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte as a boolean; any byte other than 0 or 1 is
// malformed.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(ErrMalformed)
		return false
	}
}

// Raw reads exactly n bytes with no length prefix. The slice aliases the
// underlying buffer.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Bytes reads a uvarint length prefix and that many bytes. The slice
// aliases the underlying buffer.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	// A length past the buffer end means the prefix itself is lying —
	// guard before converting so a corrupt prefix cannot drive a
	// multi-gigabyte take.
	if n > uint64(r.Remaining()) {
		r.fail(ErrTruncated)
		return nil
	}
	return r.take(int(n))
}

// String reads a uvarint length prefix and that many bytes as a string.
func (r *Reader) String() string { return string(r.Bytes()) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}
