// The NPS1 segment file format.
//
//	file    := magic "NPS1" | block… | footer | trailer
//	trailer := uint32le footerLen | uint32le crc32(footer) | magic "1SPN"
//	footer  := uvarint version (=1)
//	           uvarint firstSeq | uvarint lastSeq
//	           uvarint nReplaces | nReplaces × (uvarint firstSeq | uvarint lastSeq)
//	           byte hasTimeRange | [varint minSec | uvarint minNsec |
//	                                varint maxSec | uvarint maxNsec]
//	           uvarint nRoster | nRoster × (str routerID | str country)
//	           uvarint nBlocks | nBlocks × (uvarint blockKind | uvarint off |
//	                                        uvarint len | uvarint rows |
//	                                        uint32le crc32(payload))
//
// Blocks are column-major: one block per data set plus one for the
// idempotency keys the segment's rows were applied under (the durable
// half of the exactly-once handoff — see store.go). Each block is the
// row kind's codec.Schema encoding, the same bytes an NPB2 upload
// carries for those rows. Within a block each column is written in full
// before the next, so a reader that wants one column of one data set
// touches one contiguous byte range; the footer's offsets make the
// layout mmap/pread-friendly. Footer values use the codec primitives,
// and its times are codec time values (Unix seconds plus nanoseconds).
// The trailer is fixed-size so a reader finds the footer by seeking from
// the end; both the footer and every block carry CRC32s, and a block's
// CRC is only checked when that block is decoded.
//
// Heartbeats are deliberately absent: the heartbeat log is a shared
// run-length structure that is its own compact incremental form, and it
// is persisted by the CSV save path.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"natpeek/internal/codec"
	"natpeek/internal/dataset"
)

const (
	magicHead = "NPS1"
	magicTail = "1SPN"
)

var errCorrupt = fmt.Errorf("segment: %w", codec.ErrCorrupt)

const (
	formatVersion = 1
	trailerSize   = 4 + 4 + 4
	// maxBlocks bounds the footer's block count: one per known kind is
	// all a writer emits, but a reader tolerates (and skips) kinds it
	// does not know, within reason.
	maxBlocks = 64
)

// Block kinds. Values are stable on disk.
const (
	blkUptime = iota
	blkCapacity
	blkCounts
	blkSightings
	blkWiFi
	blkFlows
	blkThroughput
	blkKeys
)

// Key is one (router, idempotency key) pair applied into a segment's
// rows. Segments persist them so dedupe state survives restarts.
type Key = dataset.RouterKey

// SeqRange identifies the contiguous range of flush sequence numbers a
// segment file covers — a freshly flushed segment covers [n,n]; a
// compacted one covers the union of its inputs.
type SeqRange struct {
	First, Last uint64
}

// contains reports whether r covers all of o.
func (r SeqRange) contains(o SeqRange) bool {
	return r.First <= o.First && o.Last <= r.Last
}

type blockRef struct {
	kind uint64
	off  uint64
	len  uint64
	rows uint64
	crc  uint32
}

// Meta is everything a store needs to know about a segment without
// decoding its row blocks.
type Meta struct {
	Seq      SeqRange
	Replaces []SeqRange
	// MinTime/MaxTime span every row timestamp in the segment (zero
	// rows excluded); HasTimeRange is false for an all-metadata
	// segment. Compaction uses the range to find overlapping inputs.
	HasTimeRange     bool
	MinTime, MaxTime time.Time
	Roster           map[string]string
	Rows             dataset.RowCounts
	KeyRows          int

	blocks []blockRef
}

// Encode serializes rows (and the keys they were applied under) as one
// NPS1 segment covering seq. The store's per-kind slice order is
// preserved exactly — that invariant is what keeps Merge output, and
// therefore the verify golden snapshots, byte-identical when the segment
// store substitutes for the in-memory one.
func Encode(st *dataset.Store, keys []Key, seq SeqRange, replaces []SeqRange) []byte {
	w := &codec.Writer{Buf: append(make([]byte, 0, 4096), magicHead...)}

	var blocks []blockRef
	blocks = appendBlock(w, blocks, blkUptime, codec.Uptime, st.Uptime)
	blocks = appendBlock(w, blocks, blkCapacity, codec.Capacity, st.Capacity)
	blocks = appendBlock(w, blocks, blkCounts, codec.Counts, st.Counts)
	blocks = appendBlock(w, blocks, blkSightings, codec.Sightings, st.Sightings)
	blocks = appendBlock(w, blocks, blkWiFi, codec.WiFi, st.WiFi)
	blocks = appendBlock(w, blocks, blkFlows, codec.Flows, st.Flows)
	blocks = appendBlock(w, blocks, blkThroughput, codec.Throughput, st.Throughput)
	blocks = appendBlock(w, blocks, blkKeys, codec.Keys, keys)

	start := len(w.Buf)
	w.Uvarint(formatVersion)
	w.Uvarint(seq.First)
	w.Uvarint(seq.Last)
	codec.AppendList(w, replaces, func(w *codec.Writer, r SeqRange) {
		w.Uvarint(r.First)
		w.Uvarint(r.Last)
	})
	minT, maxT, ok := timeRange(st)
	w.Bool(ok)
	if ok {
		w.Time(minT)
		w.Time(maxT)
	}
	ids := make([]string, 0, len(st.RouterCountry))
	for id := range st.RouterCountry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	codec.AppendList(w, ids, func(w *codec.Writer, id string) {
		w.Str(id)
		w.Str(st.RouterCountry[id])
	})
	codec.AppendList(w, blocks, func(w *codec.Writer, b blockRef) {
		w.Uvarint(b.kind)
		w.Uvarint(b.off)
		w.Uvarint(b.len)
		w.Uvarint(b.rows)
		w.Uint32(b.crc)
	})
	footer := w.Buf[start:]
	w.Uint32(uint32(len(footer)))
	w.Uint32(crc32.ChecksumIEEE(footer))
	w.Buf = append(w.Buf, magicTail...)
	return w.Buf
}

// appendBlock encodes rows as one block of kind and records its ref.
func appendBlock[T any](w *codec.Writer, blocks []blockRef, kind uint64, s codec.Schema[T], rows []T) []blockRef {
	off := len(w.Buf)
	s.Append(w, rows)
	payload := w.Buf[off:]
	return append(blocks, blockRef{kind: kind, off: uint64(off), len: uint64(len(payload)),
		rows: uint64(len(rows)), crc: crc32.ChecksumIEEE(payload)})
}

// timeRange scans every row timestamp (zero values excluded).
func timeRange(st *dataset.Store) (minT, maxT time.Time, ok bool) {
	obs := func(t time.Time) {
		if t.IsZero() {
			return
		}
		if !ok || t.Before(minT) {
			minT = t
		}
		if !ok || t.After(maxT) {
			maxT = t
		}
		ok = true
	}
	for _, r := range st.Uptime {
		obs(r.ReportedAt)
	}
	for _, r := range st.Capacity {
		obs(r.MeasuredAt)
	}
	for _, r := range st.Counts {
		obs(r.At)
	}
	for _, r := range st.Sightings {
		obs(r.At)
	}
	for _, r := range st.WiFi {
		obs(r.At)
	}
	for _, r := range st.Flows {
		obs(r.First)
		obs(r.Last)
	}
	for _, r := range st.Throughput {
		obs(r.Minute)
	}
	return minT, maxT, ok
}

// Reader gives access to one encoded segment: the footer is parsed and
// CRC-checked up front, row blocks decode (and CRC-check) on demand.
type Reader struct {
	buf  []byte
	meta Meta
}

// NewReader parses and validates the framing and footer of an encoded
// segment. It does not touch block payloads.
func NewReader(b []byte) (*Reader, error) {
	if len(b) < len(magicHead)+trailerSize || string(b[:len(magicHead)]) != magicHead {
		return nil, fmt.Errorf("%w: bad magic or short file", errCorrupt)
	}
	t := b[len(b)-trailerSize:]
	if string(t[8:12]) != magicTail {
		return nil, fmt.Errorf("%w: bad trailer magic (torn tail?)", errCorrupt)
	}
	flen := binary.LittleEndian.Uint32(t[0:4])
	fcrc := binary.LittleEndian.Uint32(t[4:8])
	body := len(b) - trailerSize
	if int(flen) > body-len(magicHead) {
		return nil, fmt.Errorf("%w: footer length %d exceeds file", errCorrupt, flen)
	}
	footer := b[body-int(flen) : body]
	if crc32.ChecksumIEEE(footer) != fcrc {
		return nil, fmt.Errorf("%w: footer CRC mismatch (torn footer?)", errCorrupt)
	}
	r := &Reader{buf: b}
	if err := r.parseFooter(footer, uint64(body-int(flen))); err != nil {
		return nil, fmt.Errorf("segment: footer: %w", err)
	}
	return r, nil
}

func (r *Reader) parseFooter(footer []byte, blockEnd uint64) error {
	d := codec.NewReader(footer)
	if v := d.Uvarint(); d.Err() == nil && v != formatVersion {
		return fmt.Errorf("unsupported format version %d", v)
	}
	m := &r.meta
	m.Seq = SeqRange{First: d.Uvarint(), Last: d.Uvarint()}
	if m.Seq.Last < m.Seq.First {
		d.Fail("seq range %d..%d", m.Seq.First, m.Seq.Last)
	}
	m.Replaces = codec.List(d, func(d *codec.Reader) SeqRange {
		return SeqRange{First: d.Uvarint(), Last: d.Uvarint()}
	})
	if m.HasTimeRange = d.Bool(); m.HasTimeRange {
		m.MinTime = d.Time()
		m.MaxTime = d.Time()
	}
	nRoster := d.Count()
	m.Roster = make(map[string]string, nRoster)
	for i := 0; i < nRoster && d.Err() == nil; i++ {
		id := d.Str()
		m.Roster[id] = d.Str()
	}
	nb := d.Uvarint()
	if nb > maxBlocks {
		d.Fail("block count %d", nb)
	}
	for i := uint64(0); i < nb && d.Err() == nil; i++ {
		b := blockRef{kind: d.Uvarint(), off: d.Uvarint(), len: d.Uvarint(), rows: d.Uvarint(), crc: d.Uint32()}
		if b.off < uint64(len(magicHead)) || b.off+b.len < b.off || b.off+b.len > blockEnd {
			d.Fail("block %d spanning [%d,%d) outside payload", b.kind, b.off, b.off+b.len)
		}
		// Each row consumes at least one byte in its first column, so a
		// rows count beyond the payload size is forged.
		if b.rows > b.len {
			d.Fail("block %d claiming %d rows in %d bytes", b.kind, b.rows, b.len)
		}
		m.blocks = append(m.blocks, b)
		switch b.kind {
		case blkUptime:
			m.Rows.Uptime = int(b.rows)
		case blkCapacity:
			m.Rows.Capacity = int(b.rows)
		case blkCounts:
			m.Rows.Counts = int(b.rows)
		case blkSightings:
			m.Rows.Sightings = int(b.rows)
		case blkWiFi:
			m.Rows.WiFi = int(b.rows)
		case blkFlows:
			m.Rows.Flows = int(b.rows)
		case blkThroughput:
			m.Rows.Throughput = int(b.rows)
		case blkKeys:
			m.KeyRows = int(b.rows)
		}
	}
	m.Rows.Routers = len(m.Roster)
	return d.Err()
}

// Meta returns the parsed footer metadata.
func (r *Reader) Meta() Meta { return r.meta }

// readBlock CRC-checks and decodes the segment's first block of kind
// with its schema; a segment without the block, or with zero rows in
// it, yields nil rows.
func readBlock[T any](r *Reader, kind uint64, s codec.Schema[T]) ([]T, error) {
	for _, b := range r.meta.blocks {
		if b.kind != kind {
			continue
		}
		payload := r.buf[b.off : b.off+b.len]
		if crc32.ChecksumIEEE(payload) != b.crc {
			return nil, fmt.Errorf("%w: block %d CRC mismatch", errCorrupt, kind)
		}
		if b.rows == 0 {
			return nil, nil
		}
		d := codec.NewReader(payload)
		rows := s.Decode(d, nil, int(b.rows))
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("segment: block %d: %w", kind, err)
		}
		return rows, nil
	}
	return nil, nil
}

// Keys decodes the idempotency-key block.
func (r *Reader) Keys() ([]Key, error) { return readBlock(r, blkKeys, codec.Keys) }

// Rows decodes every data-set block into a plain Store (arrival order
// preserved). The returned store has no heartbeat log and an empty
// dedupe index — segments carry neither.
func (r *Reader) Rows() (*dataset.Store, error) {
	st := &dataset.Store{RouterCountry: make(map[string]string, len(r.meta.Roster))}
	for id, cc := range r.meta.Roster {
		st.RouterCountry[id] = cc
	}
	var err error
	if st.Uptime, err = readBlock(r, blkUptime, codec.Uptime); err != nil {
		return nil, err
	}
	if st.Capacity, err = readBlock(r, blkCapacity, codec.Capacity); err != nil {
		return nil, err
	}
	if st.Counts, err = readBlock(r, blkCounts, codec.Counts); err != nil {
		return nil, err
	}
	if st.Sightings, err = readBlock(r, blkSightings, codec.Sightings); err != nil {
		return nil, err
	}
	if st.WiFi, err = readBlock(r, blkWiFi, codec.WiFi); err != nil {
		return nil, err
	}
	if st.Flows, err = readBlock(r, blkFlows, codec.Flows); err != nil {
		return nil, err
	}
	if st.Throughput, err = readBlock(r, blkThroughput, codec.Throughput); err != nil {
		return nil, err
	}
	return st, nil
}

// Decode is the one-shot convenience: parse, validate, and decode
// everything (the fuzz target's entry point).
func Decode(b []byte) (*dataset.Store, []Key, Meta, error) {
	r, err := NewReader(b)
	if err != nil {
		return nil, nil, Meta{}, err
	}
	st, err := r.Rows()
	if err != nil {
		return nil, nil, Meta{}, err
	}
	keys, err := r.Keys()
	if err != nil {
		return nil, nil, Meta{}, err
	}
	return st, keys, r.meta, nil
}
