// Binary batch ingest: the server half of the NPB2 wire format
// (internal/wire) plus the pooled request-body plumbing both decode
// paths share. The hot loop here is deliberately allocation-free: the
// request body lands in a pooled buffer sized from Content-Length, items
// decode in place through a pooled wire.Decoder whose scratch rows the
// store appends copy under the shard lock, and the per-item apply runs
// through one method value bound per request — no closure and no
// interface boxing per item.
package collector

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// bodyBuf is a pooled request-body buffer. Pooling these (instead of
// io.ReadAll per request) removes the largest per-request allocation on
// the ingest path; buffers keep their high-water capacity across
// requests.
type bodyBuf struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

func putBody(bb *bodyBuf) { bodyPool.Put(bb) }

// ReadAllInto is io.ReadAll into dst, sized once from the request's
// Content-Length (sizeHint) instead of doubling its way up, and reading
// into dst's spare capacity when it is a reused buffer. Every handler
// that reads a whole request body shares it.
func ReadAllInto(dst []byte, r io.Reader, sizeHint, limit int64) ([]byte, error) {
	// The hint is attacker-controlled (a Content-Length header nobody
	// has read a byte against yet): clamp it to the body cap the caller
	// enforces before it becomes allocation capacity, so a forged
	// multi-GiB header cannot drive a huge make() that MaxBytesReader
	// would never let fill.
	if sizeHint > limit+1 {
		sizeHint = limit + 1
	}
	if n := int(sizeHint); n > 0 && int64(n) == sizeHint && cap(dst) < n+1 {
		dst = append(make([]byte, 0, n+1), dst...)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// readBody reads a request body into a pooled buffer, transparently
// decompressing Content-Encoding: gzip. On failure it writes the error
// response itself and returns nil: oversized bodies (the MaxBytesReader
// bound, or a gzip bomb expanding past it) get a 413 naming the limit
// and count under the oversized metric — not decode_errors, which would
// bury a misconfigured client in the corruption noise. The caller owns
// the returned buffer and must putBody it.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, endpoint string) *bodyBuf {
	bb := bodyPool.Get().(*bodyBuf)
	var err error
	bb.b, err = ReadAllInto(bb.b[:0], r.Body, r.ContentLength, maxUploadBytes)
	if err == nil && r.Header.Get("Content-Encoding") == "gzip" {
		bb, err = s.gunzipBody(bb)
	}
	if err != nil {
		putBody(bb)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.oversized(w, endpoint, mbe.Limit)
			return nil
		}
		s.mDecodeErrs.With(endpoint).Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil
	}
	return bb
}

// gunzipBody swaps a compressed pooled buffer for a decompressed one,
// bounding the expansion at maxUploadBytes (a *http.MaxBytesError, so
// readBody's caller sees a 413 exactly like an oversized plain body).
func (s *Server) gunzipBody(bb *bodyBuf) (*bodyBuf, error) {
	zr, err := gzip.NewReader(bytes.NewReader(bb.b))
	if err != nil {
		return bb, err
	}
	out := bodyPool.Get().(*bodyBuf)
	out.b, err = ReadAllInto(out.b[:0], io.LimitReader(zr, maxUploadBytes+1), int64(len(bb.b))*3, maxUploadBytes)
	if err == nil {
		err = zr.Close()
	}
	if err == nil && len(out.b) > maxUploadBytes {
		err = &http.MaxBytesError{Limit: maxUploadBytes}
	}
	if err != nil {
		putBody(out)
		return bb, err
	}
	putBody(bb)
	return out, nil
}

// oversized answers 413 with the limit spelled out in the body.
func (s *Server) oversized(w http.ResponseWriter, endpoint string, limit int64) {
	s.mOversized.With(endpoint).Inc()
	http.Error(w, fmt.Sprintf("request body exceeds %d-byte limit", limit),
		http.StatusRequestEntityTooLarge)
}

// batchIngest is the state one /v1/batch request threads through its
// item loop — outcome counts, assembled traces, and the envelope-decode
// timestamps every item's trace shares. It is the common core of the
// JSON and binary batch handlers, so the two paths cannot drift on
// sampling, dedupe, or failure-reporting semantics.
type batchIngest struct {
	s           *Server
	tracing     bool
	decodeStart time.Time
	decodeEnd   time.Time
	res         BatchResult
	traces      []*trace.Trace
}

// maxFailWarnings bounds per-batch server-side logging of rejected
// items; the full list still returns to the client in BatchResult.
const maxFailWarnings = 3

func (b *batchIngest) begin(s *Server, decodeStart time.Time) {
	b.s = s
	b.tracing = trace.Enabled()
	b.decodeStart = decodeStart
	b.decodeEnd = time.Now()
}

// pre makes the keep/skip sampling decision for one item before any
// trace is assembled. It returns the eager trace (pre-sampler says
// keep), or the key to build one lazily should the item's outcome turn
// out interesting.
func (b *batchIngest) pre(key string, w *trace.Wire, endpoint string) (t *trace.Trace, lazyKey string) {
	if !b.tracing || key == "" {
		return nil, ""
	}
	var wireSpans []trace.Span
	if w != nil {
		wireSpans = w.Spans
	}
	if b.s.rec.WantTraceKey(key, wireSpans, b.decodeEnd) {
		t = itemTrace(trace.IDFromKey(key), w, endpoint, b.decodeStart, b.decodeEnd)
		b.traces = append(b.traces, t)
		return t, ""
	}
	return nil, key
}

// reject records one undecodable item: the rejection counts, the
// per-item failure report the spool uses to dead-letter instead of
// retry, a bounded server-side warning, and the item's trace.
func (b *batchIngest) reject(t *trace.Trace, lazyKey string, w *trace.Wire, endpoint, key, reason string, at time.Time) {
	b.res.Rejected++
	b.res.Failed = append(b.res.Failed, BatchFailure{Endpoint: endpoint, Key: key, Reason: reason})
	if len(b.res.Failed) <= maxFailWarnings {
		b.s.log.Warn("batch item rejected", "endpoint", endpoint, "key", key, "reason", reason)
	}
	t = lazyTrace(t, lazyKey, w, endpoint, b.decodeStart, b.decodeEnd, &b.traces)
	addApply(t, at, trace.StatusRejected, reason)
}

// settle does the post-apply bookkeeping for one decodable item and
// returns its trace (possibly built lazily for a duplicate).
func (b *batchIngest) settle(applied bool, t *trace.Trace, lazyKey string, w *trace.Wire, endpoint string, applyStart time.Time) *trace.Trace {
	if applied {
		b.res.Applied++
		addApply(t, applyStart, trace.StatusOK, "")
		if t == nil && lazyKey != "" {
			b.s.rec.NoteSampledOut()
		}
		return t
	}
	b.res.Duplicates++
	t = lazyTrace(t, lazyKey, w, endpoint, b.decodeStart, b.decodeEnd, &b.traces)
	addApply(t, applyStart, trace.StatusDuplicate, "")
	return t
}

// finish flushes the batch's traces and writes the result.
func (b *batchIngest) finish(w http.ResponseWriter) {
	for _, t := range b.traces {
		b.s.rec.Finish(t)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(b.res)
}

// payloadApplier applies one decoded binary payload under its shard
// lock. One value lives per request and the apply method value is bound
// once, so the per-item cost is a pointer store — no closure allocation
// and no interface boxing per item (the decoded rows are copied by the
// store's appends while the shard lock is held, which is what makes the
// decoder's scratch reuse safe).
type payloadApplier struct{ p *wire.Payload }

func (ap *payloadApplier) apply(st *dataset.Store) {
	switch p := ap.p; p.Kind {
	case wire.KindUptime:
		st.Uptime = append(st.Uptime, p.Uptime)
	case wire.KindCapacity:
		st.Capacity = append(st.Capacity, p.Capacity)
	case wire.KindDevices:
		if p.Count != (dataset.DeviceCount{}) {
			st.Counts = append(st.Counts, p.Count)
		}
		st.Sightings = append(st.Sightings, p.Sightings...)
	case wire.KindWiFi:
		st.WiFi = append(st.WiFi, p.WiFi...)
	case wire.KindFlows:
		st.Flows = append(st.Flows, p.Flows...)
	case wire.KindThroughput:
		st.Throughput = append(st.Throughput, p.Throughput...)
	}
}

var decoderPool = sync.Pool{New: func() any { return new(wire.Decoder) }}

// handleBatchWire ingests an NPB2-encoded batch. Typed payloads skip
// JSON entirely: rows decode in place into the pooled decoder's scratch
// slices and append straight into the store. KindRaw items (unknown
// endpoints, payloads the client could not transcode) run through the
// same JSON appliers as the plain path, so accept/reject behaviour is
// identical across encodings.
//
// A mid-stream decode error fails the whole request with 400 — unlike a
// per-item decode failure, envelope corruption means nothing after the
// break can be trusted. Items applied before the break stay applied;
// the client's retry is deduplicated by its idempotency keys.
func (s *Server) handleBatchWire(w http.ResponseWriter, body []byte, decodeStart time.Time) {
	d := decoderPool.Get().(*wire.Decoder)
	defer decoderPool.Put(d)
	if err := d.Reset(body); err != nil {
		s.mDecodeErrs.With("/v1/batch").Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var b batchIngest
	b.begin(s, decodeStart)
	var ap payloadApplier
	applyFn := ap.apply
	var it wire.Item
	for {
		err := d.Next(&it)
		if err == io.EOF {
			break
		}
		if err != nil {
			s.mDecodeErrs.With("/v1/batch").Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		t, lazyKey := b.pre(it.Key, it.Trace, it.Endpoint)
		if it.Payload.Kind == wire.KindRaw {
			s.batchItemJSON(&b, BatchItem{
				Endpoint: it.Endpoint, Key: it.Key,
				Body: json.RawMessage(it.Payload.Raw), Trace: it.Trace,
			}, t, lazyKey)
			continue
		}
		applyStart := time.Now()
		s.mItems.With(it.Endpoint).Inc()
		ap.p = &it.Payload
		applied := s.ingest(it.Endpoint, it.Key, it.Payload.Router(), applyFn)
		t = b.settle(applied, t, lazyKey, it.Trace, it.Endpoint, applyStart)
		if t != nil && t.Router == "" {
			t.Router = it.Payload.Router()
		}
	}
	b.finish(w)
}

// batchItemJSON runs one JSON-bodied batch item (every item of a JSON
// batch; KindRaw items of a binary one) through its endpoint's applier.
func (s *Server) batchItemJSON(b *batchIngest, it BatchItem, t *trace.Trace, lazyKey string) {
	af := s.appliers[it.Endpoint]
	if af == nil {
		s.mDecodeErrs.With("/v1/batch").Inc()
		b.reject(t, lazyKey, it.Trace, it.Endpoint, it.Key, "unknown endpoint", b.decodeEnd)
		return
	}
	applyStart := time.Now()
	router, apply, err := af(it.Body)
	if err != nil {
		s.mDecodeErrs.With(it.Endpoint).Inc()
		b.reject(t, lazyKey, it.Trace, it.Endpoint, it.Key, decodeReason(err), applyStart)
		return
	}
	s.mItems.With(it.Endpoint).Inc()
	applied := s.ingest(it.Endpoint, it.Key, router, apply)
	t = b.settle(applied, t, lazyKey, it.Trace, it.Endpoint, applyStart)
	if t != nil && t.Router == "" {
		t.Router = router
	}
}

// decodeReason renders a decode failure for BatchResult.Failed, bounded
// so one hostile payload cannot balloon the response.
func decodeReason(err error) string {
	msg := "decode error: " + err.Error()
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return msg
}
