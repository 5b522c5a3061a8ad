package wire

import (
	"time"

	"natpeek/internal/codec"
	"natpeek/internal/dataset"
	"natpeek/internal/trace"
)

// hasTrace is the item meta bit that marks a traced item.
const hasTrace = 1 << 3

// The trace's span and attr columns.
var (
	spanSchema = codec.Schema[trace.Span]{
		codec.Refs(func(s *trace.Span) *string { return &s.Name }),
		codec.Refs(func(s *trace.Span) *string { return &s.Status }),
		codec.Times(func(s *trace.Span) *time.Time { return &s.Start }),
		codec.Times(func(s *trace.Span) *time.Time { return &s.End }),
	}
	attrSchema = codec.Schema[trace.Attr]{
		codec.Refs(func(a *trace.Attr) *string { return &a.K }),
		codec.Refs(func(a *trace.Attr) *string { return &a.V }),
	}
)

// AppendBatch encodes a whole batch onto dst and returns the extended
// buffer. Callers on a delivery loop pass last round's buffer back in
// (sliced to [:0]) to amortize the allocation. Items whose payload kind
// disagrees with KindFor(Endpoint) must use KindRaw; PayloadFromJSON
// guarantees that invariant for transcoded items.
func AppendBatch(dst []byte, items []Item) []byte {
	e := encoder{w: codec.Writer{Buf: append(dst, magic...)}}
	e.w.Uvarint(uint64(len(items)))
	for i := range items {
		e.item(&items[i])
	}
	return e.w.Buf
}

// encoder holds one-row views of the single-row kinds, so they encode
// as blocks without a slice allocation per item, and the flattened
// attrs of the trace being written.
type encoder struct {
	w        codec.Writer
	uptime   [1]dataset.UptimeReport
	capacity [1]dataset.CapacityMeasure
	count    [1]dataset.DeviceCount
	attrs    []trace.Attr
}

func (e *encoder) item(it *Item) {
	w := &e.w
	meta := uint64(it.Payload.Kind)
	if it.Trace != nil {
		meta |= hasTrace
	}
	w.Uvarint(meta)
	if it.Payload.Kind == KindRaw {
		w.Str(it.Endpoint)
	}
	w.Str(it.Key)
	if it.Trace != nil {
		e.trace(it.Trace)
	}
	p := &it.Payload
	switch p.Kind {
	case KindUptime:
		e.uptime[0] = p.Uptime
		codec.Uptime.Append(w, e.uptime[:])
	case KindCapacity:
		e.capacity[0] = p.Capacity
		codec.Capacity.Append(w, e.capacity[:])
	case KindDevices:
		w.Uvarint(uint64(len(p.Sightings)))
		e.count[0] = p.Count
		codec.Counts.Append(w, e.count[:])
		codec.Sightings.Append(w, p.Sightings)
	case KindWiFi:
		w.Uvarint(uint64(len(p.WiFi)))
		codec.WiFi.Append(w, p.WiFi)
	case KindFlows:
		w.Uvarint(uint64(len(p.Flows)))
		codec.Flows.Append(w, p.Flows)
	case KindThroughput:
		w.Uvarint(uint64(len(p.Throughput)))
		codec.Throughput.Append(w, p.Throughput)
	default: // KindRaw
		w.Blob(p.Raw)
	}
}

func (e *encoder) trace(tr *trace.Wire) {
	w := &e.w
	w.ResetDict()
	w.Ref(tr.Router)
	w.Uvarint(uint64(len(tr.Spans)))
	spanSchema.Append(w, tr.Spans)
	e.attrs = e.attrs[:0]
	for _, sp := range tr.Spans {
		w.Uvarint(uint64(len(sp.Attrs)))
		e.attrs = append(e.attrs, sp.Attrs...)
	}
	attrSchema.Append(w, e.attrs)
}
