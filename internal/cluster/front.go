package cluster

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/heartbeat"
	"natpeek/internal/telemetry"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// frontMaxUpload mirrors the collector's data-plane body bound.
const frontMaxUpload = 8 << 20

// DefaultReplication is the write replication factor when none is
// configured: every acknowledged write exists on its owner plus one
// successor's journal, so any single node death loses nothing.
const DefaultReplication = 2

// FrontConfig configures a front-tier router.
type FrontConfig struct {
	// ID identifies the front in gossip. Required.
	ID string
	// UDPAddr receives gateway heartbeats (the cluster's heartbeat log
	// lives at the front; nodes hold measurement rows). HTTPAddr serves
	// the client-facing /v1/* API; CtrlAddr the control plane.
	UDPAddr, HTTPAddr, CtrlAddr string
	// Peers seeds discovery (control-plane addresses).
	Peers []string
	// Replication is the write replication factor R: owner + R-1
	// successor journals per acknowledged write, clamped to the live
	// node count. Default DefaultReplication.
	Replication int
	// Gossip tunes the failure detector.
	Gossip GossipConfig
	// MaxInflight caps concurrent data-plane requests at the front
	// (429 + Retry-After beyond it); 0 means collector.DefaultMaxInflight.
	MaxInflight int
}

// Front is the cluster's client-facing tier. It speaks the exact same
// /v1/* + /v1/batch API as a single collector — clients cannot tell the
// difference — and routes every upload by router-ID consistent hash to
// its owning node, replicating each acknowledged write to the R-1
// successor journals before acking. Batches that span routers are split
// per placement group and forwarded as NPB2 sub-batches that copy each
// item's bytes — its rows are decoded to check the batch, never encoded
// again — with a front.route span appended so node-side /debug/traces
// shows the front→node hop in every waterfall.
type Front struct {
	cfg FrontConfig
	ms  *membership
	gsp *gossiper
	log *slog.Logger

	hb   *heartbeat.Log
	hbRx *heartbeat.Receiver

	httpSrv *http.Server
	ln      net.Listener
	ctrl    *http.Server
	ctrlLn  net.Listener
	httpc   *http.Client
	rec     *trace.Recorder

	admit atomic.Value // chan struct{}

	mReqs       *telemetry.CounterVec
	mThrottled  *telemetry.Counter
	mFenced     *telemetry.Counter
	mRouted     *telemetry.CounterVec
	mReplicated *telemetry.CounterVec
	mErrors     *telemetry.CounterVec

	stop    chan struct{}
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// NewFront starts a front-tier router.
func NewFront(cfg FrontConfig) (*Front, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: front needs an ID")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	cfg.Gossip = cfg.Gossip.withDefaults()
	hb := heartbeat.NewLog()
	hbRx, err := heartbeat.NewReceiver(cfg.UDPAddr, hb, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: front %s: %w", cfg.ID, err)
	}
	ctrlLn, err := net.Listen("tcp", cfg.CtrlAddr)
	if err != nil {
		hbRx.Close()
		return nil, fmt.Errorf("cluster: front %s: control listen: %w", cfg.ID, err)
	}
	ln, err := net.Listen("tcp", cfg.HTTPAddr)
	if err != nil {
		hbRx.Close()
		ctrlLn.Close()
		return nil, fmt.Errorf("cluster: front %s: listen: %w", cfg.ID, err)
	}
	reg := telemetry.Default
	f := &Front{
		cfg:    cfg,
		log:    slog.Default().With("component", "cluster-front", "front", cfg.ID),
		hb:     hb,
		hbRx:   hbRx,
		ln:     ln,
		ctrlLn: ctrlLn,
		httpc:  &http.Client{},
		rec:    trace.NewRecorder(trace.Config{}),
		mReqs: reg.CounterVec("natpeek_front_requests_total",
			"Front-tier requests received, per endpoint.", "endpoint"),
		mThrottled: reg.CounterVec("natpeek_front_throttled_total",
			"Front-tier requests answered 429, per front.", "front").With(cfg.ID),
		mFenced: reg.CounterVec("natpeek_front_fenced_total",
			"Requests answered 429 because a pending ring epoch is moving their shard, per front.", "front").With(cfg.ID),
		mRouted: reg.CounterVec("natpeek_front_routed_items_total",
			"Batch items routed to an owner node, per node.", "node"),
		mReplicated: reg.CounterVec("natpeek_front_replicated_frames_total",
			"Replicate frames fanned out to successor journals, per node.", "node"),
		mErrors: reg.CounterVec("natpeek_front_errors_total",
			"Front-tier requests failed before a clean ack, per reason.", "reason"),
		stop: make(chan struct{}),
	}
	maxInflight := cfg.MaxInflight
	if maxInflight <= 0 {
		maxInflight = collector.DefaultMaxInflight
	}
	f.admit.Store(make(chan struct{}, maxInflight))
	f.ms = newMembership(Member{
		ID: cfg.ID, Role: RoleFront,
		CtrlAddr:    ctrlLn.Addr().String(),
		DataAddr:    ln.Addr().String(),
		Incarnation: uint64(time.Now().UnixNano()),
	}, cfg.Gossip)
	f.gsp = newGossiper(cfg.ID, f.ms, f.httpc, cfg.Peers, f.log)

	ctrlMux := http.NewServeMux()
	ctrlMux.HandleFunc("POST /cluster/gossip", f.handleGossip)
	ctrlMux.HandleFunc("GET /cluster/members", func(w http.ResponseWriter, r *http.Request) {
		writeMembersJSON(w, f.ms.view())
	})
	f.ctrl = &http.Server{Handler: ctrlMux, ReadHeaderTimeout: 10 * time.Second}
	go f.ctrl.Serve(ctrlLn)

	mux := http.NewServeMux()
	for _, ep := range collector.Endpoints() {
		mux.HandleFunc("POST "+ep, f.proxyEndpoint(ep))
	}
	mux.HandleFunc("POST /v1/batch", f.instrument("/v1/batch", f.handleBatch))
	mux.HandleFunc("GET /v1/stats", f.handleStats)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("POST /v1/cluster/drain", f.handleDrainAdmin)
	mux.HandleFunc("GET /v1/cluster/epoch", func(w http.ResponseWriter, r *http.Request) {
		writeEpochJSON(w, f.ms)
	})
	mux.HandleFunc("GET /cluster/members", func(w http.ResponseWriter, r *http.Request) {
		writeMembersJSON(w, f.ms.view())
	})
	telemetry.RegisterDebug(mux, reg)
	trace.RegisterDebug(mux, f.rec)
	f.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go f.httpSrv.Serve(ln)

	f.gsp.learn()
	f.wg.Add(1)
	go f.gossipLoop()
	f.log.Debug("front up", "http", f.HTTPAddr(), "udp", f.UDPAddr(), "ctrl", f.CtrlAddr())
	return f, nil
}

// HTTPAddr is the client-facing address (point gateways and loadgen
// here instead of at a collector).
func (f *Front) HTTPAddr() string { return f.ln.Addr().String() }

// UDPAddr is the heartbeat address.
func (f *Front) UDPAddr() string { return f.hbRx.Addr().String() }

// CtrlAddr is the control-plane address.
func (f *Front) CtrlAddr() string { return f.ctrlLn.Addr().String() }

// Heartbeats is the cluster-wide heartbeat log (heartbeats terminate at
// the front; measurement rows shard across nodes).
func (f *Front) Heartbeats() *heartbeat.Log { return f.hb }

// View returns the front's judged membership.
func (f *Front) View() []MemberView { return f.ms.view() }

// TraceRecorder exposes the front's recorder (/debug/traces).
func (f *Front) TraceRecorder() *trace.Recorder { return f.rec }

// SetMaxInflight re-arms the front's admission semaphore.
func (f *Front) SetMaxInflight(n int) {
	if n <= 0 {
		n = collector.DefaultMaxInflight
	}
	f.admit.Store(make(chan struct{}, n))
}

// Close shuts the front down.
func (f *Front) Close() error {
	f.closeMu.Lock()
	if f.closed {
		f.closeMu.Unlock()
		return nil
	}
	f.closed = true
	close(f.stop)
	f.closeMu.Unlock()
	err := f.hbRx.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if serr := f.httpSrv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := f.ctrl.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	f.wg.Wait()
	return err
}

func (f *Front) gossipLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.Gossip.Interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		f.gsp.once()
	}
}

func (f *Front) handleGossip(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, ctrlMaxBody)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := DecodeMessage(body)
	if err != nil || m.Kind != MsgGossip {
		http.Error(w, "cluster: want gossip", http.StatusBadRequest)
		return
	}
	f.ms.merge(m.Gossip.Members)
	f.ms.mergeEpochs(m.Gossip.Cur, m.Gossip.Next)
	cur, next := f.ms.epochs()
	w.Header().Set("Content-Type", ctrlContentType)
	w.Write(AppendMessage(nil, &Message{Kind: MsgGossip,
		Gossip: &Gossip{From: f.cfg.ID, Members: f.ms.snapshot(), Cur: cur, Next: next}}))
}

// fenceCheck reports whether a router's shard is mid-cutover: a pending
// ring epoch assigns it a different owner than the current ring. Writes
// for such a shard are answered 429 + Retry-After — applying them at
// the old owner could race the transfer's extraction (landing after the
// final sweep and getting stranded), and applying them at the new owner
// would fork the row set before its history arrives. The client's
// normal retry loop absorbs the pause; fencing never drops a write.
// Fencing is deterministic across fronts because the pending ring is
// built from the proposal's node list alone, unfiltered by local
// liveness judgements.
func (f *Front) fenceCheck(ring, pending *Ring, router string) bool {
	return pending != nil && pending.Owner(router) != ring.Owner(router)
}

// fencedFailure is the uniform cutover answer.
func fencedFailure(router string) *forwardFailure {
	return &forwardFailure{status: http.StatusTooManyRequests, retryAfter: "1",
		msg: "shard for router " + router + " is rebalancing, retry later"}
}

// instrument wraps a data-plane handler with the collector's admission
// semantics: a full semaphore answers 429 + Retry-After without
// blocking, and every response advertises the binary batch encoding.
func (f *Front) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs := f.mReqs.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		w.Header().Set("Accept-Post", wire.ContentTypeBinary+", application/json")
		sem := f.admit.Load().(chan struct{})
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
		default:
			f.mThrottled.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "front saturated, retry later", http.StatusTooManyRequests)
			return
		}
		h(w, r)
	}
}

// placementGroup is one replica set's slice of a batch, and the attrs
// of the front.route span its traced items carry across the hop.
type placementGroup struct {
	placement  []string
	routeAttrs []trace.Attr
	items      []routedItem
}

// routedItem is one batch item as the front and handoff move it: what
// routing needs, a trace the front may extend, and the item's NPB2
// payload section — never its rows. An item without rows cannot reach
// an applier or restoreItems by mistake.
type routedItem struct {
	endpoint string
	key      string
	kind     wire.Kind
	router   string
	trace    *trace.Wire
	encoded  []byte // the payload section; may alias the batch it came from
}

// itemScratch pools the wire.Item frames appendRouted hands AppendBatch.
var itemScratch = sync.Pool{New: func() any { return new([]wire.Item) }}

// appendRouted frames items as one NPB2 batch onto dst, copying each
// item's payload section as it is.
func appendRouted(dst []byte, items []routedItem) []byte {
	sp := itemScratch.Get().(*[]wire.Item)
	frames := (*sp)[:0]
	size := len(dst) + 16
	for i := range items {
		ri := &items[i]
		frames = append(frames, wire.Item{Endpoint: ri.endpoint, Key: ri.key,
			Payload: wire.Payload{Kind: ri.kind}, Encoded: ri.encoded, Trace: ri.trace})
		size += len(ri.encoded) + len(ri.key) + len(ri.endpoint) + 8
		if ri.trace != nil {
			size += 64 * len(ri.trace.Spans)
		}
	}
	if cap(dst) < size {
		dst = append(make([]byte, 0, size), dst...)
	}
	dst = wire.AppendBatch(dst, frames)
	clear(frames)
	*sp = frames[:0]
	itemScratch.Put(sp)
	return dst
}

func (f *Front) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := readBody(w, r, frontMaxUpload)
	if err != nil {
		f.mErrors.With("read").Inc()
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if r.Header.Get("Content-Encoding") == "gzip" {
		if body, err = gunzipBounded(body, frontMaxUpload); err != nil {
			f.mErrors.With("gzip").Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	items, err := decodeBatchItems(r.Header.Get("Content-Type"), body)
	if err != nil {
		f.mErrors.With("decode").Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	groups, fail := f.groupItems(items, start)
	if fail != nil {
		if fail.status == http.StatusTooManyRequests {
			f.mFenced.Inc()
		} else {
			f.mErrors.With("no-nodes").Inc()
		}
		fail.write(w)
		return
	}

	var total collector.BatchResult
	traceparent := r.Header.Get("Traceparent")
	for _, g := range groups {
		res, fail := f.forwardGroup(r.Context(), g, traceparent, start)
		if fail != nil {
			fail.write(w)
			return
		}
		total.Applied += res.Applied
		total.Duplicates += res.Duplicates
		total.Rejected += res.Rejected
		total.Failed = append(total.Failed, res.Failed...)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(total)
}

// decoderPool keeps wire decoders warm across batches: their scratch
// rows and dictionary-literal interner are reused, as on a node's ingest
// path. Every caller copies what it keeps out of the decoder.
var decoderPool = sync.Pool{New: func() any { return new(wire.Decoder) }}

// decodeBatchItems turns either wire form of a /v1/batch body into
// routed items. An NPB2 body is decoded in full, so a batch the
// collector would refuse is refused here, before any item is forwarded;
// each item then keeps its routing facts, a copy of its trace and its
// payload section, which aliases body. JSON items are transcoded to
// typed payloads (the KindRaw verbatim fallback preserves accept/reject
// behaviour byte-for-byte) and their sections encoded.
func decodeBatchItems(contentType string, body []byte) ([]routedItem, error) {
	if contentType == wire.ContentTypeBinary || strings.HasPrefix(contentType, wire.ContentTypeBinary+";") {
		dec := decoderPool.Get().(*wire.Decoder)
		defer decoderPool.Put(dec)
		if err := dec.Reset(body); err != nil {
			return nil, err
		}
		items := make([]routedItem, 0, dec.Len())
		var it wire.Item
		for {
			err := dec.Next(&it)
			if err == io.EOF {
				return items, nil
			}
			if err != nil {
				return nil, err
			}
			ri := routedItem{endpoint: it.Endpoint, key: it.Key, kind: it.Payload.Kind,
				router: routerOfItem(&it), encoded: dec.Encoded()}
			if tr := it.Trace; tr != nil {
				// The decoder reuses its span slice; room for front.route.
				spans := append(make([]trace.Span, 0, len(tr.Spans)+1), tr.Spans...)
				ri.trace = &trace.Wire{Router: tr.Router, Spans: spans}
			}
			items = append(items, ri)
		}
	}
	var jitems []collector.BatchItem
	if err := json.Unmarshal(body, &jitems); err != nil {
		return nil, err
	}
	items := make([]routedItem, 0, len(jitems))
	for _, ji := range jitems {
		it := wire.Item{Endpoint: ji.Endpoint, Key: ji.Key, Payload: wire.PayloadFromJSON(ji.Endpoint, ji.Body)}
		items = append(items, routedItem{endpoint: it.Endpoint, key: it.Key, kind: it.Payload.Kind,
			router: routerOfItem(&it), trace: ji.Trace, encoded: wire.AppendPayload(nil, &it.Payload)})
	}
	return items, nil
}

// groupItems splits a batch by replica set, appending the front.route
// span each traced item carries across the hop. Fails the whole batch
// when the ring is empty, or with a fence when ANY item's shard is
// mid-cutover — partial application would ack rows the client has no
// way to re-send selectively, so the batch is refused before a single
// item is forwarded and the retry lands intact after the cutover.
func (f *Front) groupItems(items []routedItem, start time.Time) ([]*placementGroup, *forwardFailure) {
	ring := f.ms.ring()
	if ring.Len() == 0 {
		return nil, &forwardFailure{status: http.StatusServiceUnavailable, msg: "no live collector nodes"}
	}
	pending := f.ms.pendingRing()
	n := f.cfg.Replication
	if n > ring.Len() {
		n = ring.Len()
	}
	var groups []*placementGroup
	now := time.Now()
	tracing := trace.Enabled()
	for i := range items {
		it := &items[i]
		if f.fenceCheck(ring, pending, it.router) {
			return nil, fencedFailure(it.router)
		}
		placement := ring.Lookup(it.router, n)
		var g *placementGroup
		for _, og := range groups {
			if slices.Equal(og.placement, placement) {
				g = og
				break
			}
		}
		if g == nil {
			g = &placementGroup{placement: placement}
			if tracing {
				g.routeAttrs = []trace.Attr{
					{K: "front", V: f.cfg.ID},
					{K: "node", V: placement[0]},
					{K: "replicas", V: strconv.Itoa(len(placement) - 1)},
				}
			}
			groups = append(groups, g)
		}
		if tracing && it.key != "" {
			if it.trace == nil {
				it.trace = &trace.Wire{Router: it.router}
			}
			it.trace.Spans = append(it.trace.Spans, trace.Span{
				Name: "front.route", Start: start, End: now, Status: trace.StatusOK,
				Attrs: g.routeAttrs,
			})
		}
		g.items = append(g.items, *it)
	}
	return groups, nil
}

// forwardFailure is a routed request's terminal error: what to tell the
// client so its retry converges.
type forwardFailure struct {
	status     int
	retryAfter string
	msg        string
}

func (fail *forwardFailure) write(w http.ResponseWriter) {
	if fail.retryAfter != "" {
		w.Header().Set("Retry-After", fail.retryAfter)
	}
	http.Error(w, fail.msg, fail.status)
}

// forwardGroup delivers one placement group: the NPB2-encoded sub-batch
// to the owner's data plane, then a replicate frame to every successor
// journal. The client is acked only when all R copies exist; any
// failure surfaces as a retryable status and the client's idempotency
// keys flatten whatever did land.
func (f *Front) forwardGroup(ctx context.Context, g *placementGroup, traceparent string, start time.Time) (collector.BatchResult, *forwardFailure) {
	var res collector.BatchResult
	owner := g.placement[0]
	om, ok := f.ms.lookup(owner)
	if !ok {
		f.mErrors.With("owner-unknown").Inc()
		return res, &forwardFailure{status: http.StatusServiceUnavailable, msg: "owner node unknown"}
	}
	enc := appendRouted(nil, g.items)

	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+om.DataAddr+"/v1/batch", bytes.NewReader(enc))
	if err != nil {
		return res, &forwardFailure{status: http.StatusInternalServerError, msg: err.Error()}
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := f.httpc.Do(req)
	if err != nil {
		f.mErrors.With("owner-unreachable").Inc()
		return res, &forwardFailure{status: http.StatusServiceUnavailable,
			msg: "owner " + owner + " unreachable: " + err.Error()}
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		f.mErrors.With("owner-throttled").Inc()
		ra := resp.Header.Get("Retry-After")
		if ra == "" {
			ra = "1"
		}
		return res, &forwardFailure{status: http.StatusTooManyRequests, retryAfter: ra,
			msg: "owner " + owner + " saturated: " + strings.TrimSpace(string(body))}
	case resp.StatusCode != http.StatusOK || rerr != nil:
		f.mErrors.With("owner-error").Inc()
		return res, &forwardFailure{status: http.StatusBadGateway,
			msg: fmt.Sprintf("owner %s: %s: %s", owner, resp.Status, bytes.TrimSpace(body))}
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return res, &forwardFailure{status: http.StatusBadGateway,
			msg: "owner " + owner + ": bad batch result: " + err.Error()}
	}
	f.mRouted.With(owner).Add(int64(len(g.items)))

	succs := g.placement[1:]
	for _, succ := range succs {
		sm, ok := f.ms.lookup(succ)
		if !ok {
			f.mErrors.With("replica-unknown").Inc()
			return res, &forwardFailure{status: http.StatusServiceUnavailable, msg: "successor node unknown"}
		}
		_, err := postCtrl(f.httpc, sm.CtrlAddr, "/cluster/replicate", &Message{
			Kind:      MsgReplicate,
			Replicate: &Replicate{Owner: owner, Successors: succs, Batch: enc},
		}, 30*time.Second)
		if err != nil {
			f.mErrors.With("replica-unreachable").Inc()
			return res, &forwardFailure{status: http.StatusServiceUnavailable,
				msg: "replica " + succ + ": " + err.Error()}
		}
		f.mReplicated.With(succ).Inc()
	}

	if trace.Enabled() && len(g.items) > 0 && g.items[0].key != "" {
		f.rec.Finish(&trace.Trace{
			ID: trace.IDFromKey(g.items[0].key), Endpoint: "/v1/batch",
			Router: g.items[0].router,
			Spans: []trace.Span{{
				Name: "front.forward", Start: start, End: time.Now(), Status: trace.StatusOK,
				Attrs: []trace.Attr{
					{K: "node", V: owner},
					{K: "items", V: fmt.Sprint(len(g.items))},
					{K: "replicas", V: fmt.Sprint(len(succs))},
				},
			}},
		})
	}
	return res, nil
}

// proxyEndpoint serves one direct /v1/* endpoint: route by router,
// forward the body verbatim to the owner, replicate it (wrapped as a
// one-item NPB2 batch) to the successor journals, and relay the owner's
// response. Unkeyed direct posts — registration in practice — are only
// replayed as map upserts, so failover cannot duplicate rows through
// them.
func (f *Front) proxyEndpoint(endpoint string) http.HandlerFunc {
	return f.instrument(endpoint, func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r, frontMaxUpload)
		if err != nil {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		key := r.Header.Get("Idempotency-Key")
		router := routerOfDirect(endpoint, body, key)
		ring := f.ms.ring()
		if ring.Len() == 0 {
			f.mErrors.With("no-nodes").Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "no live collector nodes", http.StatusServiceUnavailable)
			return
		}
		if f.fenceCheck(ring, f.ms.pendingRing(), router) {
			f.mFenced.Inc()
			fencedFailure(router).write(w)
			return
		}
		n := f.cfg.Replication
		if n > ring.Len() {
			n = ring.Len()
		}
		placement := ring.Lookup(router, n)
		owner := placement[0]
		om, ok := f.ms.lookup(owner)
		if !ok {
			http.Error(w, "owner node unknown", http.StatusServiceUnavailable)
			return
		}

		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			"http://"+om.DataAddr+endpoint, bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for _, h := range []string{"Content-Type", "Idempotency-Key", "Traceparent"} {
			if v := r.Header.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
		resp, err := f.httpc.Do(req)
		if err != nil {
			f.mErrors.With("owner-unreachable").Inc()
			http.Error(w, "owner "+owner+" unreachable: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		respBody, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if rerr != nil {
			http.Error(w, rerr.Error(), http.StatusBadGateway)
			return
		}
		f.mRouted.With(owner).Inc()

		// Replicate only what the owner actually applied.
		if resp.StatusCode/100 == 2 && len(placement) > 1 {
			item := wire.Item{Endpoint: endpoint, Key: key,
				Payload: wire.PayloadFromJSON(endpoint, body)}
			enc := wire.AppendBatch(nil, []wire.Item{item})
			succs := placement[1:]
			for _, succ := range succs {
				sm, ok := f.ms.lookup(succ)
				if !ok {
					http.Error(w, "successor node unknown", http.StatusServiceUnavailable)
					return
				}
				if _, err := postCtrl(f.httpc, sm.CtrlAddr, "/cluster/replicate", &Message{
					Kind:      MsgReplicate,
					Replicate: &Replicate{Owner: owner, Successors: succs, Batch: enc},
				}, 30*time.Second); err != nil {
					f.mErrors.With("replica-unreachable").Inc()
					http.Error(w, "replica "+succ+": "+err.Error(), http.StatusServiceUnavailable)
					return
				}
				f.mReplicated.With(succ).Inc()
			}
		}

		if ra := resp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(respBody)
	})
}

// handleDrainAdmin is the operator's scale-in entry point:
// POST /v1/cluster/drain?node=<id> relays a MsgDrain to the named
// node's control plane and passes its 202 back. The drain itself runs
// on the node; the operator polls GET /v1/cluster/epoch (here or on any
// front) and stops the process once the epoch without the node commits.
func (f *Front) handleDrainAdmin(w http.ResponseWriter, r *http.Request) {
	f.mReqs.With("/v1/cluster/drain").Inc()
	id := r.URL.Query().Get("node")
	if id == "" {
		http.Error(w, "missing ?node=<id>", http.StatusBadRequest)
		return
	}
	mem, ok := f.ms.lookup(id)
	if !ok || mem.Role != RoleNode {
		http.Error(w, "unknown collector node "+id, http.StatusNotFound)
		return
	}
	if _, err := postCtrl(f.httpc, mem.CtrlAddr, "/cluster/drain",
		&Message{Kind: MsgDrain, Drain: &Drain{Node: id}}, 10*time.Second); err != nil {
		http.Error(w, "drain "+id+": "+err.Error(), http.StatusBadGateway)
		return
	}
	f.log.Info("drain accepted", "node", id)
	w.WriteHeader(http.StatusAccepted)
}

// handleStats aggregates /v1/stats across every live node, plus the
// front's heartbeat log. Routers counts a router once per node that
// holds rows for it — exact while healthy, and at worst a small
// overcount after a failover re-registered routers on a successor;
// dataset row counts are exact either way (keys dedupe rows, and rows
// live on exactly one node).
func (f *Front) handleStats(w http.ResponseWriter, r *http.Request) {
	var total collector.Stats
	for _, mv := range f.ms.view() {
		if mv.Role != RoleNode || mv.State == StateDead {
			continue
		}
		st, err := f.fetchStats(r.Context(), mv.DataAddr)
		if err != nil {
			http.Error(w, "node "+mv.ID+": "+err.Error(), http.StatusBadGateway)
			return
		}
		total.Routers += st.Routers
		total.Heartbeats += st.Heartbeats
		total.Uptime += st.Uptime
		total.Capacity += st.Capacity
		total.Counts += st.Counts
		total.Sightings += st.Sightings
		total.WiFi += st.WiFi
		total.Flows += st.Flows
		total.Throughput += st.Throughput
	}
	for _, id := range f.hb.Routers() {
		total.Heartbeats += f.hb.Count(id)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(total)
}

func (f *Front) fetchStats(ctx context.Context, dataAddr string) (collector.Stats, error) {
	var st collector.Stats
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+dataAddr+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := f.httpc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: %s", resp.Status)
	}
	return st, json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st)
}

// frontHealth is the front's /healthz shape.
type frontHealth struct {
	Status    string `json:"status"`
	HTTPAddr  string `json:"http_addr"`
	UDPAddr   string `json:"heartbeat_addr"`
	CtrlAddr  string `json:"ctrl_addr"`
	LiveNodes int    `json:"live_nodes"`
	DeadNodes int    `json:"dead_nodes"`
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := frontHealth{Status: "ok", HTTPAddr: f.HTTPAddr(), UDPAddr: f.UDPAddr(), CtrlAddr: f.CtrlAddr()}
	for _, mv := range f.ms.view() {
		if mv.Role != RoleNode {
			continue
		}
		if mv.State == StateDead {
			h.DeadNodes++
		} else {
			h.LiveNodes++
		}
	}
	if h.LiveNodes == 0 {
		h.Status = "no-nodes"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// routerOfItem extracts a batch item's routing key: the typed payload's
// router, a raw payload's sniffed router, or the idempotency key's
// router prefix (every spool and loadgen key starts with the router
// ID). An unroutable item maps to the ring position of "" — a constant,
// so retries land on the same node and still dedupe.
func routerOfItem(it *wire.Item) string {
	if r := it.Payload.Router(); r != "" {
		return r
	}
	if it.Payload.Kind == wire.KindRaw && len(it.Payload.Raw) > 0 {
		if r := routerOfDirect(it.Endpoint, it.Payload.Raw, it.Key); r != "" {
			return r
		}
	}
	return keyRouter(it.Key)
}

// routerOfDirect extracts the routing key from a direct /v1/* body.
func routerOfDirect(endpoint string, body []byte, key string) string {
	if p := wire.PayloadFromJSON(endpoint, body); p.Kind != wire.KindRaw {
		if r := p.Router(); r != "" {
			return r
		}
	}
	if endpoint == "/v1/register" {
		var reg struct {
			RouterID string `json:"router_id"`
		}
		if json.Unmarshal(body, &reg) == nil && reg.RouterID != "" {
			return reg.RouterID
		}
	}
	return keyRouter(key)
}

// keyRouter is the idempotency-key fallback: keys are router-prefixed
// ("<router>:<nonce>:...") by both the spool and loadgen.
func keyRouter(key string) string {
	if i := strings.IndexByte(key, ':'); i > 0 {
		return key[:i]
	}
	return ""
}

// readBody reads a request body of at most limit bytes into one
// allocation sized from its Content-Length, clamped to limit. Replicate
// frames are kept by the journal, so bodies are never pooled.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return collector.ReadAllInto(nil, http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
}

// gunzipBounded inflates a gzip body, refusing to expand past limit.
func gunzipBounded(body []byte, limit int64) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(io.LimitReader(zr, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(out)) > limit {
		return nil, fmt.Errorf("cluster: gzip body exceeds %d bytes", limit)
	}
	return out, nil
}
