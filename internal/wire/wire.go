// Package wire is the compact binary batch encoding for the upload
// pipeline ("NPB2"). JSON got the platform to correctness; at fleet
// scale the collector's ingest path is decode- and alloc-bound, and the
// paper's own platform shipped compact reports from resource-starved
// home routers for the same reason. This package encodes the exact
// payloads /v1/batch carries — idempotency keys, trace spans, and the
// typed measurement rows of every /v1/* endpoint — several times
// smaller and an order of magnitude cheaper to decode than the JSON
// envelope.
//
// Format, in the primitives of package codec:
//
//	magic "NPB2"
//	count items
//	per item:
//	  uvarint meta       bits 0..2 payload kind, bit 3 "has trace"
//	  str     endpoint   KindRaw only (typed kinds imply theirs)
//	  str     key        idempotency key, verbatim bytes
//	  trace              if bit 3: ref router, count spans, the span
//	                     block (Refs name, Refs status, Times start,
//	                     Times end), one uvarint attr count per span,
//	                     then the attr block of every span's attrs in
//	                     order (Refs key, Refs value)
//	  count rows         devices (sightings), wifi, flows, throughput
//	  payload            the NPS1 block of the item's rows: one row for
//	                     uptime and capacity; a one-row counts block then
//	                     the sightings block for devices; blob for KindRaw
//
// Blocks use package codec's column types, as the row kinds do. An item
// is self-contained: every dictionary is scoped to one of its columns,
// and every time.Time round-trips exactly, zero values included, so
// there is no batch-wide state and no instant the typed encoding cannot
// carry.
//
// Pre-encoded payload sections: because an item's payload section
// depends on nothing outside it, it can be encoded once and moved as
// bytes. AppendPayload encodes one from typed rows, a Decoder hands out
// the section of the item it just decoded, and an Item carrying such
// bytes in Encoded is re-framed by AppendBatch without its rows being
// encoded again. The collector client encodes each upload's section
// once, when the gateway hands it the rows, and the cluster front
// forwards the sections of the items it routes as they arrived.
//
// Compatibility: the encoding is negotiated, never assumed. Requests
// carry Content-Type ContentTypeBinary; the collector advertises
// support via an "Accept-Post" response header and keeps serving JSON
// clients unchanged. Unknown endpoints ride inside the envelope as
// KindRaw with their JSON body verbatim, so the binary path never has
// to reject what the JSON path would have accepted.
package wire

import (
	"encoding/json"

	"natpeek/internal/dataset"
	"natpeek/internal/trace"
)

// ContentTypeBinary is the negotiated media type for NPB2-encoded batch
// requests. Anything else on /v1/batch is treated as JSON. It names the
// format version, and no earlier media type is a substring of it, so a
// client that matches an older advertisement with strings.Contains falls
// back to JSON instead of posting bytes this server cannot read.
const ContentTypeBinary = "application/x-natpeek-npb2"

// magic starts every NPB2 buffer ("natpeek binary, version 2").
const magic = "NPB2"

// Kind identifies a payload's row schema inside the binary envelope.
type Kind uint8

// Payload kinds. KindRaw carries a verbatim JSON body for endpoints the
// encoder has no schema for (registration, future endpoints); the
// decoder hands it to the same JSON applier the plain path uses.
const (
	KindRaw Kind = iota
	KindUptime
	KindCapacity
	KindDevices
	KindWiFi
	KindFlows
	KindThroughput

	kindMax = KindThroughput
)

// KindFor maps an upload endpoint to its typed payload kind (KindRaw
// for endpoints without a binary schema).
func KindFor(endpoint string) Kind {
	switch endpoint {
	case "/v1/uptime":
		return KindUptime
	case "/v1/capacity":
		return KindCapacity
	case "/v1/devices":
		return KindDevices
	case "/v1/wifi":
		return KindWiFi
	case "/v1/traffic/flows":
		return KindFlows
	case "/v1/traffic/throughput":
		return KindThroughput
	}
	return KindRaw
}

// Endpoint returns the upload endpoint a typed kind serves ("" for
// KindRaw, whose endpoint is carried explicitly).
func (k Kind) Endpoint() string {
	switch k {
	case KindUptime:
		return "/v1/uptime"
	case KindCapacity:
		return "/v1/capacity"
	case KindDevices:
		return "/v1/devices"
	case KindWiFi:
		return "/v1/wifi"
	case KindFlows:
		return "/v1/traffic/flows"
	case KindThroughput:
		return "/v1/traffic/throughput"
	}
	return ""
}

// Item is one batch entry: the binary equivalent of the JSON
// /v1/batch item (endpoint, idempotency key, payload, client trace).
type Item struct {
	Endpoint string
	Key      string
	Payload  Payload
	// Encoded, when non-nil, is the item's payload section already
	// encoded (AppendPayload, or a Decoder's Encoded): AppendBatch copies
	// it instead of encoding Payload, whose Kind must still name its kind
	// and whose rows are then ignored.
	Encoded []byte
	// Trace carries the client-side spans. The trace ID itself is not
	// shipped — the collector derives it from the idempotency key and
	// never trusts the wire — so decoded Wires have an empty TraceID.
	Trace *trace.Wire
}

// Census mirrors the /v1/devices JSON payload: one count row plus the
// per-device sightings recorded with it.
type Census struct {
	Count     dataset.DeviceCount      `json:"count"`
	Sightings []dataset.DeviceSighting `json:"sightings"`
}

// Payload is one item's measurement rows, discriminated by Kind. Only
// the fields for the active kind are meaningful. Slices produced by a
// Decoder are scratch storage owned by the decoder — valid until the
// next Next or Reset call — and Raw aliases the decoder's input buffer;
// consumers must copy anything they retain (the collector's store
// appends copy rows synchronously under the shard lock, so the ingest
// path needs no extra copies).
type Payload struct {
	Kind Kind

	Raw        []byte // KindRaw: verbatim JSON body
	Uptime     dataset.UptimeReport
	Capacity   dataset.CapacityMeasure
	Count      dataset.DeviceCount
	Sightings  []dataset.DeviceSighting
	WiFi       []dataset.WiFiScan
	Flows      []dataset.FlowRecord
	Throughput []dataset.ThroughputSample
}

// Router returns the payload's shard-routing router ID, matching the
// JSON appliers exactly: the census count's router, or the first row's
// for slice payloads (empty slices route to the empty-ID shard).
func (p *Payload) Router() string {
	switch p.Kind {
	case KindUptime:
		return p.Uptime.RouterID
	case KindCapacity:
		return p.Capacity.RouterID
	case KindDevices:
		return p.Count.RouterID
	case KindWiFi:
		if len(p.WiFi) > 0 {
			return p.WiFi[0].RouterID
		}
	case KindFlows:
		if len(p.Flows) > 0 {
			return p.Flows[0].RouterID
		}
	case KindThroughput:
		if len(p.Throughput) > 0 {
			return p.Throughput[0].RouterID
		}
	}
	return ""
}

// Rows counts the dataset rows the payload carries (0 for KindRaw,
// whose rows are only known after JSON decode).
func (p *Payload) Rows() int {
	switch p.Kind {
	case KindUptime, KindCapacity:
		return 1
	case KindDevices:
		return 1 + len(p.Sightings)
	case KindWiFi:
		return len(p.WiFi)
	case KindFlows:
		return len(p.Flows)
	case KindThroughput:
		return len(p.Throughput)
	}
	return 0
}

// JSONBody renders the payload as the JSON body the plain /v1/* path
// would have carried — the bridge for privacy scanners, journaling, and
// equivalence tests. KindRaw returns its bytes verbatim.
func (p *Payload) JSONBody() ([]byte, error) {
	switch p.Kind {
	case KindUptime:
		return json.Marshal(p.Uptime)
	case KindCapacity:
		return json.Marshal(p.Capacity)
	case KindDevices:
		return json.Marshal(Census{Count: p.Count, Sightings: p.Sightings})
	case KindWiFi:
		return json.Marshal(p.WiFi)
	case KindFlows:
		return json.Marshal(p.Flows)
	case KindThroughput:
		return json.Marshal(p.Throughput)
	}
	return p.Raw, nil
}

// PayloadFromJSON transcodes one endpoint's JSON body into a typed
// payload. An unknown endpoint or a body that does not decode cleanly
// falls back to KindRaw with the body verbatim, so the server's
// accept/reject behaviour is byte-for-byte the JSON path's.
func PayloadFromJSON(endpoint string, body []byte) Payload {
	switch KindFor(endpoint) {
	case KindUptime:
		var v dataset.UptimeReport
		if json.Unmarshal(body, &v) == nil {
			return Payload{Kind: KindUptime, Uptime: v}
		}
	case KindCapacity:
		var v dataset.CapacityMeasure
		if json.Unmarshal(body, &v) == nil {
			return Payload{Kind: KindCapacity, Capacity: v}
		}
	case KindDevices:
		var v Census
		if json.Unmarshal(body, &v) == nil {
			return Payload{Kind: KindDevices, Count: v.Count, Sightings: v.Sightings}
		}
	case KindWiFi:
		var v []dataset.WiFiScan
		if json.Unmarshal(body, &v) == nil {
			return Payload{Kind: KindWiFi, WiFi: v}
		}
	case KindFlows:
		var v []dataset.FlowRecord
		if json.Unmarshal(body, &v) == nil {
			return Payload{Kind: KindFlows, Flows: v}
		}
	case KindThroughput:
		var v []dataset.ThroughputSample
		if json.Unmarshal(body, &v) == nil {
			return Payload{Kind: KindThroughput, Throughput: v}
		}
	}
	return Payload{Kind: KindRaw, Raw: body}
}
