// Package codec owns natpeek's binary byte layout. Three formats sit on
// it: NPB2 upload batches (package wire), NPS1 segment files (package
// segment) and NPC1 control messages (package cluster). Each decides its
// own framing; this package decides how values and rows become bytes.
//
// # Primitives
//
// A Writer appends values to a byte slice; a Reader walks one with every
// read bounds-checked. The Reader keeps the first error it hits: later
// reads return zero values and consume nothing, so a decoder reads a
// whole structure and checks Err once. Hostile input cannot panic it or
// make it allocate from a forged length.
//
//	uvarint  unsigned LEB128 (encoding/binary)
//	varint   zigzag LEB128
//	count    uvarint element count, bounded by the bytes left (Reader.Count)
//	byte     one raw byte; bool is a byte that must be 0 or 1
//	str      uvarint length + raw bytes
//	ref      dictionary-coded string: uvarint 0 + str introduces the next
//	         entry of the current dictionary, v > 0 repeats entry v-1
//	float64  8 bytes, IEEE 754 bits, little-endian
//	uint32   4 bytes, little-endian
//	mac      the address's 6 raw bytes
//	time     varint Unix seconds + uvarint nanoseconds (< 1e9)
//
// A dictionary's scope is opened by ResetDict; each ref column opens its
// own, so a low-cardinality column (routers, bands, domains) costs about
// one byte per row.
//
// # Row kinds
//
// Rows are column-major: every column of a block is written in full
// before the next, in the order the Schema lists them. The row count is
// framing and is not part of the block. Columns are
//
//	Refs      n × ref, in a dictionary scope of their own
//	Strs      n × str
//	Varints   n × varint; Uvarints n × uvarint
//	Float64s  n × float64
//	MACs      n × mac
//	Times     count z, z strictly increasing row indexes whose time is
//	          the zero time.Time, then for every other row the varint
//	          delta of its Unix seconds from the previous such row (the
//	          first from 0) and its uvarint nanoseconds
//
// The time column has no sentinel and no range limit: every instant with
// int64 Unix seconds round-trips exactly, decoded in UTC. The per-kind
// schemas are
//
//	Uptime      RouterID ref, ReportedAt time, Uptime varint
//	Capacity    RouterID ref, MeasuredAt time, UpBps float64, DownBps float64
//	Counts      RouterID ref, At time, Wired varint, W24 varint, W5 varint
//	Sightings   RouterID ref, At time, Device mac, Kind uvarint
//	WiFi        RouterID ref, At time, Band ref, Channel varint,
//	            VisibleAPs varint, Clients varint
//	Flows       RouterID ref, Device mac, Domain ref, Proto ref, First time,
//	            Last time, UpBytes, DownBytes, UpPkts, DownPkts, Conns varint
//	Throughput  RouterID ref, Minute time, Dir ref, PeakBps float64,
//	            TotalBytes varint
//	Keys        Router ref, Key str
//
// NPS1 stores each as one block per data set; NPB2 ships each typed
// upload as the same block, so one Schema value is the only encoder and
// the only decoder of its row kind.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"natpeek/internal/mac"
)

// ErrCorrupt is wrapped by every error a Reader reports.
var ErrCorrupt = errors.New("corrupt encoding")

// Writer appends encoded values to Buf.
type Writer struct {
	Buf []byte

	// dict is the current dictionary scope in entry order; index maps
	// entries to positions once the scope outgrows a linear scan.
	dict  []string
	index map[string]int
}

// linearDict is the scope size up to which Ref scans dict instead of
// hashing: most ref columns in an upload hold one or two distinct values.
const linearDict = 8

func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }
func (w *Writer) Varint(v int64)   { w.Buf = binary.AppendVarint(w.Buf, v) }
func (w *Writer) Byte(b byte)      { w.Buf = append(w.Buf, b) }
func (w *Writer) Raw(b []byte)     { w.Buf = append(w.Buf, b...) }
func (w *Writer) Uint32(v uint32)  { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) MAC(a mac.Addr)   { w.Buf = append(w.Buf, a[:]...) }

func (w *Writer) Float64(v float64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(v))
}

func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Blob appends length-prefixed bytes.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Raw(b)
}

// Time appends one instant as Unix seconds plus nanoseconds.
func (w *Writer) Time(t time.Time) {
	w.Varint(t.Unix())
	w.Uvarint(uint64(t.Nanosecond()))
}

// ResetDict opens a new dictionary scope for Ref.
func (w *Writer) ResetDict() {
	if len(w.dict) > linearDict {
		clear(w.index)
	}
	w.dict = w.dict[:0]
}

// Ref appends s dictionary-coded in the current scope.
func (w *Writer) Ref(s string) {
	if i, ok := w.lookup(s); ok {
		w.Uvarint(uint64(i) + 1)
		return
	}
	w.dict = append(w.dict, s)
	switch n := len(w.dict); {
	case n == linearDict+1:
		if w.index == nil {
			w.index = make(map[string]int)
		}
		for i, d := range w.dict {
			w.index[d] = i
		}
	case n > linearDict+1:
		w.index[s] = n - 1
	}
	w.Uvarint(0)
	w.Str(s)
}

func (w *Writer) lookup(s string) (int, bool) {
	if len(w.dict) > linearDict {
		i, ok := w.index[s]
		return i, ok
	}
	for i, d := range w.dict {
		if d == s {
			return i, true
		}
	}
	return 0, false
}

// AppendList appends a count followed by every element.
func AppendList[T any](w *Writer, xs []T, put func(*Writer, T)) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		put(w, x)
	}
}

// Reader decodes values from one buffer. The zero value reads an empty
// buffer; Reset rebinds it while keeping its scratch storage.
type Reader struct {
	buf  []byte
	off  int
	err  error
	dict []string // the current dictionary scope's entries

	// Intern, when set, serves dictionary literals from a cache that
	// outlives the buffer instead of copying each one.
	Intern *Interner
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Reset rebinds r to b and clears its error and dictionary scope.
func (r *Reader) Reset(b []byte) {
	r.buf, r.off, r.err = b, 0, nil
	r.dict = r.dict[:0]
}

// Err returns the first error the Reader hit, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// End returns Err, or an error if unread bytes remain.
func (r *Reader) End() error {
	if r.err == nil && r.Len() > 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	return r.err
}

// Fail records a corruption error at the current offset unless one is
// already recorded; what describes the bad value.
func (r *Reader) Fail(what string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: bad %s at offset %d", ErrCorrupt, fmt.Sprintf(what, args...), r.off)
	}
}

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 { // most values fit one byte
		r.off++
		return uint64(r.buf[r.off-1])
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Count reads an element count. Every element costs at least one byte,
// so a count beyond the bytes left is forged and fails the Reader
// before anything is sized from it.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if v > uint64(r.Len()) {
		r.Fail("count %d", v)
		return 0
	}
	return int(v)
}

// fits reports whether n elements of at least size bytes each fit in the
// bytes left, failing the Reader if not. Schema.Decode calls it before
// sizing a slice from n, so a forged count allocates no more than an
// honest encoding of the same length would.
func (r *Reader) fits(n, size int) bool {
	if r.err != nil {
		return false
	}
	if n > r.Len()/size {
		r.Fail("count %d", n)
		return false
	}
	return true
}

// Raw returns the next n bytes, aliasing the buffer.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.Fail("length %d", n)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *Reader) Byte() byte {
	if b := r.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1, so every value has one encoding.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail("flag %d", b)
	}
	return b == 1
}

func (r *Reader) Uint32() uint32 {
	if b := r.Raw(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) Float64() float64 {
	if b := r.Raw(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (r *Reader) MAC() mac.Addr {
	var a mac.Addr
	copy(a[:], r.Raw(len(a)))
	return a
}

// Blob reads length-prefixed bytes, aliasing the buffer.
func (r *Reader) Blob() []byte { return r.Raw(r.Count()) }

// Str reads a length-prefixed string, copied out of the buffer.
func (r *Reader) Str() string { return string(r.Blob()) }

// Time reads one instant written by Writer.Time, in UTC.
func (r *Reader) Time() time.Time {
	sec := r.Varint()
	nsec := r.Uvarint()
	if nsec >= uint64(time.Second) {
		r.Fail("nanoseconds %d", nsec)
	}
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// ResetDict opens a new dictionary scope for Ref.
func (r *Reader) ResetDict() { r.dict = r.dict[:0] }

// Ref reads one dictionary-coded string in the current scope. Each
// literal is copied once, or not at all when Intern already holds it.
func (r *Reader) Ref() string {
	v := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if v == 0 {
		b := r.Blob()
		if r.err != nil {
			return ""
		}
		s := r.Intern.intern(b)
		r.dict = append(r.dict, s)
		return s
	}
	if v > uint64(len(r.dict)) {
		r.Fail("dictionary reference %d of %d", v, len(r.dict))
		return ""
	}
	return r.dict[v-1]
}

// List reads a count and then that many elements with read, stopping at
// the first error. It returns nil for an empty list.
func List[T any](r *Reader, read func(*Reader) T) []T {
	n := r.Count()
	var out []T
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, read(r))
	}
	return out
}

// Interning bounds: longer literals are always copied, and the cache is
// cleared once it holds internMaxEntries strings (≤1 MiB).
const (
	internMaxLen     = 256
	internMaxEntries = 4096
)

// Interner caches dictionary literals across buffers. A pooled wire
// decoder sees the same router IDs, domains and span names batch after
// batch; serving them from the cache makes each copy a one-time cost.
// It is bounded, so hostile input cannot grow it without limit. The
// zero value is ready to use; a nil Interner copies every literal.
type Interner struct {
	m map[string]string
}

func (in *Interner) intern(b []byte) string {
	if in == nil || len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok { // no alloc: map index on string(b)
		return s
	}
	if len(in.m) >= internMaxEntries {
		clear(in.m)
	}
	if in.m == nil {
		in.m = make(map[string]string)
	}
	s := string(b)
	in.m[s] = s
	return s
}
