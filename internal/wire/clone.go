package wire

import (
	"natpeek/internal/dataset"
	"natpeek/internal/trace"
)

// Clone deep-copies an item out of a Decoder's scratch storage, for a
// caller that keeps decoded rows past the next Next or Reset call:
// decoded payload slices and Raw bytes are only valid until then. Span
// attrs are already freshly allocated per decode (the recorder retains
// them), so the span slice copy is shallow.
func (it *Item) Clone() Item {
	cp := *it
	cp.Payload.Raw = append([]byte(nil), it.Payload.Raw...)
	if it.Encoded != nil {
		cp.Encoded = append([]byte{}, it.Encoded...)
	}
	cp.Payload.Sightings = append([]dataset.DeviceSighting(nil), it.Payload.Sightings...)
	cp.Payload.WiFi = append([]dataset.WiFiScan(nil), it.Payload.WiFi...)
	cp.Payload.Flows = append([]dataset.FlowRecord(nil), it.Payload.Flows...)
	cp.Payload.Throughput = append([]dataset.ThroughputSample(nil), it.Payload.Throughput...)
	if it.Trace != nil {
		w := trace.Wire{TraceID: it.Trace.TraceID, Router: it.Trace.Router,
			Spans: append([]trace.Span(nil), it.Trace.Spans...)}
		cp.Trace = &w
	}
	return cp
}
