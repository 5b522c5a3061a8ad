package wire

import (
	"fmt"
	"io"

	"natpeek/internal/codec"
	"natpeek/internal/dataset"
	"natpeek/internal/trace"
)

// Decoder streams items out of one NPB2 buffer. It is built for a
// sync.Pool: Reset rebinds it to a new buffer while keeping every
// scratch slice (dictionary, row slices, span slice) at its high-water
// capacity, so a warmed decoder ingests a batch with close to zero
// allocations — the only per-batch allocations left are the dictionary
// string copies themselves, and its interner serves repeated ones.
//
// Hostile input is bounded, not trusted: every length and count is
// checked against the bytes actually remaining, so a forged header
// cannot make the decoder allocate beyond what an honest buffer of its
// size would need. A corrupt buffer yields an error from Reset or Next;
// it never panics.
//
// The Item filled by Next reuses the decoder's scratch storage — see
// Payload's doc for the aliasing rules.
type Decoder struct {
	r    codec.Reader
	in   codec.Interner
	left int // items not yet decoded

	uptime     [1]dataset.UptimeReport
	capacity   [1]dataset.CapacityMeasure
	count      [1]dataset.DeviceCount
	sightings  []dataset.DeviceSighting
	wifi       []dataset.WiFiScan
	flows      []dataset.FlowRecord
	throughput []dataset.ThroughputSample
	spans      []trace.Span
	attrCounts []int
	tr         trace.Wire
}

// Reset binds the decoder to buf and decodes the envelope header,
// returning an error if buf is not an NPB2 batch.
func (d *Decoder) Reset(buf []byte) error {
	d.r.Reset(buf)
	d.r.Intern = &d.in
	d.left = 0
	if string(d.r.Raw(len(magic))) != magic {
		return fmt.Errorf("wire: not an NPB2 batch")
	}
	d.left = d.r.Count()
	if err := d.r.Err(); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}

// Len returns how many items remain to be decoded.
func (d *Decoder) Len() int { return d.left }

// Next decodes the next item into it, reusing the decoder's scratch
// storage. It returns io.EOF after the last item — and, like the JSON
// path, rejects trailing bytes after the final item.
func (d *Decoder) Next(it *Item) error {
	r := &d.r
	if d.left == 0 {
		if err := r.End(); err != nil {
			return fmt.Errorf("wire: %w", err)
		}
		return io.EOF
	}
	d.left--
	*it = Item{}

	meta := r.Uvarint()
	kind := Kind(meta & 0x7)
	if kind > kindMax || meta&^(hasTrace|0x7) != 0 {
		r.Fail("item meta %#x", meta)
	}
	p := &it.Payload
	p.Kind = kind
	it.Endpoint = kind.Endpoint()
	if kind == KindRaw {
		it.Endpoint = r.Str()
	}
	it.Key = r.Str()
	if meta&hasTrace != 0 {
		d.trace(it)
	}
	switch kind {
	case KindUptime:
		codec.Uptime.Decode(r, d.uptime[:], 1) // decodes in place
		p.Uptime = d.uptime[0]
	case KindCapacity:
		codec.Capacity.Decode(r, d.capacity[:], 1)
		p.Capacity = d.capacity[0]
	case KindDevices:
		n := r.Count()
		codec.Counts.Decode(r, d.count[:], 1)
		p.Count = d.count[0]
		d.sightings = codec.Sightings.Decode(r, d.sightings, n)
		p.Sightings = d.sightings
	case KindWiFi:
		d.wifi = codec.WiFi.Decode(r, d.wifi, r.Count())
		p.WiFi = d.wifi
	case KindFlows:
		d.flows = codec.Flows.Decode(r, d.flows, r.Count())
		p.Flows = d.flows
	case KindThroughput:
		d.throughput = codec.Throughput.Decode(r, d.throughput, r.Count())
		p.Throughput = d.throughput
	default: // KindRaw: zero-copy alias into the input buffer
		p.Raw = r.Blob()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}

// trace decodes an item's trace into scratch. Attrs are freshly
// allocated, never scratch: span slices are copied into traces the
// recorder retains long after this batch's buffers are reused, and that
// copy is shallow.
func (d *Decoder) trace(it *Item) {
	r := &d.r
	r.ResetDict()
	router := r.Ref()
	spans := spanSchema.Decode(r, d.spans, r.Count())
	counts := d.attrCounts[:0]
	total := 0
	for range spans {
		n := r.Count()
		counts = append(counts, n)
		total += n
	}
	d.attrCounts = counts
	attrs := attrSchema.Decode(r, nil, total)
	if r.Err() != nil {
		return
	}
	for i, n := range counts {
		spans[i].Attrs = nil
		if n > 0 {
			spans[i].Attrs, attrs = attrs[:n:n], attrs[n:]
		}
	}
	d.spans = spans
	d.tr = trace.Wire{Router: router, Spans: spans}
	it.Trace = &d.tr
}
