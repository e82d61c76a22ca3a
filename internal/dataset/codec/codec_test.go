package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// writeSample encodes one of every primitive and returns the bytes.
func writeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(0)
	w.Uvarint(300)
	w.Uvarint(math.MaxUint64)
	w.Varint(-1)
	w.Varint(1 << 40)
	w.U8(0xab)
	w.U16(0xbeef)
	w.U64(0x1122334455667788)
	w.F64(3.5)
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.Raw([]byte{1, 2, 3})
	w.Bytes([]byte("hello"))
	w.Bytes(nil)
	w.String("gold.eth")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Offset() != int64(buf.Len()) {
		t.Fatalf("Offset = %d, buffer has %d bytes", w.Offset(), buf.Len())
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	r := NewReader(writeSample(t))
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d, want 300", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d, want MaxUint64", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("Varint = %d, want -1", got)
	}
	if got := r.Varint(); got != 1<<40 {
		t.Errorf("Varint = %d, want 1<<40", got)
	}
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %x", got)
	}
	if got := r.U16(); got != 0xbeef {
		t.Errorf("U16 = %x", got)
	}
	if got := r.U64(); got != 0x1122334455667788 {
		t.Errorf("U64 = %x", got)
	}
	if got := r.F64(); got != 3.5 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 = %v, want -Inf", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Raw = %v", got)
	}
	if got := r.Bytes(); string(got) != "hello" {
		t.Errorf("Bytes = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %q", got)
	}
	if got := r.String(); got != "gold.eth" {
		t.Errorf("String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

// Every truncation point of the sample must surface as an error from
// some read — never as silently zero values with a nil Err.
func TestTruncatedAtEveryByteErrors(t *testing.T) {
	full := writeSample(t)
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		// Drain with the same sequence as the round-trip test.
		r.Uvarint()
		r.Uvarint()
		r.Uvarint()
		r.Varint()
		r.Varint()
		r.U8()
		r.U16()
		r.U64()
		r.F64()
		r.F64()
		r.Bool()
		r.Bool()
		r.Raw(3)
		r.Bytes()
		r.Bytes()
		_ = r.String() // draining for the error, not the value
		if r.Err() == nil {
			t.Fatalf("cut at byte %d of %d: no error after draining", cut, len(full))
		}
		if !errors.Is(r.Err(), ErrTruncated) && !errors.Is(r.Err(), ErrMalformed) {
			t.Fatalf("cut at byte %d: unexpected error %v", cut, r.Err())
		}
	}
}

// The first error latches: later reads return zero values and do not
// overwrite it.
func TestErrorsAreSticky(t *testing.T) {
	r := NewReader([]byte{0x80}) // unterminated varint
	if r.Uvarint() != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", r.Err())
	}
	if got := r.U64(); got != 0 {
		t.Errorf("post-error U64 = %d, want 0", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("sticky error replaced by %v", r.Err())
	}
}

// A length prefix pointing past the end of the buffer must be rejected
// before any allocation sized from it.
func TestBytesRejectsLyingLengthPrefix(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(1 << 40) // claims a terabyte follows
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(buf.Bytes())
	if got := r.Bytes(); got != nil {
		t.Errorf("Bytes = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Err = %v, want ErrTruncated", r.Err())
	}
}

// A varint wider than 64 bits is malformed, not truncated.
func TestVarintOverflowIsMalformed(t *testing.T) {
	over := bytes.Repeat([]byte{0xff}, 10)
	over = append(over, 0x02)
	r := NewReader(over)
	r.Uvarint()
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Errorf("Err = %v, want ErrMalformed", r.Err())
	}
}

// Bool bytes other than 0/1 are malformed — they would otherwise decode
// differently than they were encoded, breaking byte-stability.
func TestBoolRejectsNonCanonicalBytes(t *testing.T) {
	r := NewReader([]byte{2})
	if r.Bool() {
		t.Error("malformed Bool returned true")
	}
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Errorf("Err = %v, want ErrMalformed", r.Err())
	}
}

// A failed writer stays failed and Flush reports the original error.
func TestWriterErrorsAreSticky(t *testing.T) {
	w := NewWriter(failWriter{})
	for i := 0; i < 1<<21; i++ { // overflow the internal buffer
		w.U64(uint64(i))
	}
	if w.Err() == nil {
		t.Fatal("writer never surfaced the sink error")
	}
	before := w.Err()
	w.String("after")
	if w.Err() != before {
		t.Error("sticky writer error replaced")
	}
	if w.Flush() != before {
		t.Error("Flush did not report the sticky error")
	}
}

// TestWriterPrimitivesDoNotAllocate pins the snapshot encoder's hot
// path: every fixed-width and varint value goes straight into the
// buffer, and the byte count still covers each one.
func TestWriterPrimitivesDoNotAllocate(t *testing.T) {
	var sink bytes.Buffer
	sink.Grow(1 << 16)
	w := NewWriter(&sink)
	allocs := testing.AllocsPerRun(100, func() {
		w.Uvarint(math.MaxUint64)
		w.Varint(-1 << 40)
		w.U8(0xab)
		w.U16(0xbeef)
		w.U64(0x1122334455667788)
		w.F64(3.5)
		w.Bool(true)
		w.RawString("gold")
	})
	if allocs != 0 {
		t.Errorf("writer primitives allocate %.0f times per call set, want 0", allocs)
	}
	const perRun = 10 + 6 + 1 + 2 + 8 + 8 + 1 + 4
	if got, want := w.Offset(), int64(101*perRun); got != want {
		t.Errorf("Offset = %d after 101 call sets, want %d", got, want)
	}
	if err := w.Flush(); err != nil || int64(sink.Len()) != w.Offset() {
		t.Errorf("flushed %d bytes (err %v), Offset %d", sink.Len(), err, w.Offset())
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, errors.New("sink failed")
}
