package main

// The traced run. The benchmark's own wrappers record a span at each
// layer boundary it can reach from outside the program — one per cycle,
// the client's export and heartbeat calls, every HTTP round trip (a
// RoundTripper around the shared transport, with httptrace for the
// connection wait), and every store apply (a dataset.IngestStore wrapper
// handed to the collector) — and keep them in memory until the end,
// when they are joined, written to a CSV file and folded into the
// per-layer ledger. Requests and applies join through the idempotency
// keys in the captured request bodies: both sides carry
// trace.IDFromKey(key). Wire, front and journal costs come from replaying
// the captured bodies offline after the run.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"natpeek/internal/cluster"
	"natpeek/internal/dataset"
	"natpeek/internal/figures"
	"natpeek/internal/heartbeat"
	"natpeek/internal/segment"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// closureTolerance bounds the ledger's closure error: the blocking-path
// self times of every cycle, summed, must match the summed cycle times
// to within this share. They match exactly when each router has at most
// one round trip in flight, as its single spool drainer should; time
// where a router's requests overlap is counted twice and shows here.
const closureTolerance = 0.01

type httpRec struct {
	router   int
	start    time.Time
	end      time.Time
	connWait atomic.Int64 // ns from GetConn to GotConn
	getConn  atomic.Int64 // unix ns
	status   int
	bytes    int
	body     []byte
	parent   int // cycle index, -1 when outside every cycle
}

type applyRec struct {
	key     string
	start   time.Time
	end     time.Time
	applied bool
}

// tracer is the traced run's recorder. A nil *tracer is the untraced
// run: every method is a no-op and no wrapper enters the pipeline.
type tracer struct {
	active atomic.Bool

	mu      sync.Mutex
	https   []*httpRec
	applies []applyRec

	t0   time.Time
	ph   *phase
	rows int
	recs []cycleRec

	hbLog     *heartbeat.Log
	hbRouters []*router
	recorded  int

	seals, sealRows int
	sealWatching    atomic.Bool

	dashOpen  time.Duration
	dashStats figures.DashboardStats
	allTimes  []float64
	openTimes []float64
	mergeTime []float64
	segMetas  []segment.Meta
	segBytes  int64
	storeRows int

	journalFrames, journalBytes, journalRows int

	m map[string]float64
}

// ---- HTTP ----

type tracedRT struct {
	t      *tracer
	router int
	next   http.RoundTripper
}

func (t *tracer) wrapRT(i int, rt http.RoundTripper) http.RoundTripper {
	if t == nil {
		return rt
	}
	return &tracedRT{t: t, router: i, next: rt}
}

func (r *tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !r.t.active.Load() {
		return r.next.RoundTrip(req)
	}
	rec := &httpRec{router: r.router, bytes: int(req.ContentLength), parent: -1}
	if req.GetBody != nil && req.URL.Path == "/v1/batch" {
		if b, err := req.GetBody(); err == nil {
			rec.body, _ = io.ReadAll(b) // reads an in-memory copy of the body; it cannot fail
		}
	}
	ct := &httptrace.ClientTrace{
		GetConn: func(string) { rec.getConn.Store(time.Now().UnixNano()) },
		GotConn: func(httptrace.GotConnInfo) {
			rec.connWait.Store(time.Now().UnixNano() - rec.getConn.Load())
		},
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
	rec.start = time.Now()
	resp, err := r.next.RoundTrip(req)
	if err != nil {
		rec.end = time.Now()
		r.t.addHTTP(rec)
		return nil, err
	}
	rec.status = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		rec.end = time.Now()
		r.t.addHTTP(rec)
	}}
	return resp, nil
}

// timedBody ends the request span when the client closes the response.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func (t *tracer) addHTTP(rec *httpRec) {
	t.mu.Lock()
	t.https = append(t.https, rec)
	t.mu.Unlock()
}

// ---- store ----

type tracedStore struct {
	dataset.IngestStore
	t *tracer
}

func (t *tracer) wrapStore(s dataset.IngestStore) dataset.IngestStore {
	if t == nil {
		return s
	}
	return &tracedStore{IngestStore: s, t: t}
}

func (s *tracedStore) Apply(router, key string, apply func(*dataset.Store)) bool {
	if !s.t.active.Load() {
		return s.IngestStore.Apply(router, key, apply)
	}
	start := time.Now()
	ok := s.IngestStore.Apply(router, key, apply)
	end := time.Now()
	s.t.mu.Lock()
	s.t.applies = append(s.t.applies, applyRec{key: key, start: start, end: end, applied: ok})
	s.t.mu.Unlock()
	return ok
}

// ---- observations from the workloads ----

func (t *tracer) begin(at time.Time) {
	if t != nil {
		t.t0 = at
		t.active.Store(true)
	}
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	t.active.Store(false)
	if t.hbLog != nil {
		time.Sleep(beatGrace)
		for _, r := range t.hbRouters {
			t.recorded += t.hbLog.Count(r.id)
		}
	}
}

// beatGrace lets the last heartbeats of the traced phase cross the
// loopback before they are counted.
const beatGrace = 100 * time.Millisecond

func (t *tracer) window(p *phase, rows int, recs []cycleRec) {
	if t != nil {
		t.ph, t.rows, t.recs = p, rows, recs
	}
}

// heartbeats names the log the fleet's UDP beats land in.
func (t *tracer) heartbeats(log *heartbeat.Log, routers []*router) {
	if t != nil {
		t.hbLog, t.hbRouters = log, routers
	}
}

// watchSeals subscribes to the store's seals; segments already on disk
// are replayed first and not counted.
func (t *tracer) watchSeals(s *segment.Store) error {
	if t == nil {
		return nil
	}
	err := s.Subscribe(func(chunk *dataset.Store) {
		if !t.sealWatching.Load() {
			return
		}
		t.mu.Lock()
		t.seals++
		t.sealRows += rowsOf(chunk)
		t.mu.Unlock()
	})
	t.sealWatching.Store(true)
	return err
}

func rowsOf(st *dataset.Store) int {
	return len(st.Uptime) + len(st.Capacity) + len(st.Counts) + len(st.Sightings) +
		len(st.WiFi) + len(st.Flows) + len(st.Throughput)
}

func (t *tracer) dashboardOpen(d time.Duration) {
	if t != nil {
		t.dashOpen = d
	}
}

func (t *tracer) dashboardStats(s figures.DashboardStats) {
	if t != nil {
		t.dashStats = s
	}
}

func (t *tracer) figuresAll(d time.Duration) {
	if t != nil {
		t.mu.Lock()
		t.allTimes = append(t.allTimes, ms(d))
		t.mu.Unlock()
	}
}

func (t *tracer) coldScan(open, merge, all time.Duration) {
	if t != nil {
		t.mu.Lock()
		t.openTimes = append(t.openTimes, ms(open))
		t.mergeTime = append(t.mergeTime, ms(merge))
		t.allTimes = append(t.allTimes, ms(all))
		t.mu.Unlock()
	}
}

func (t *tracer) segments(metas []segment.Meta, bytes int64, rows int) {
	if t != nil {
		t.segMetas, t.segBytes, t.storeRows = metas, bytes, rows
	}
}

func (t *tracer) journals(nodes []*cluster.Node, rows int) {
	if t == nil {
		return
	}
	for _, nd := range nodes {
		f, b, _ := nd.JournalStats()
		t.journalFrames += f
		t.journalBytes += b
	}
	t.journalRows = rows
}

// ---- the traced run ----

// runTraced runs the workload once untraced and once traced, folds the
// spans into the ledger, replays the captured bodies offline, and
// prints the per-layer table to stderr.
func runTraced(cfg config, w workload) (*result, error) {
	cfg.passes = 1
	plain, err := w(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced reference run: %w", err)
	}
	runtime.GC()
	t := &tracer{m: map[string]float64{}}
	res, err := w(cfg, t)
	if err != nil {
		return nil, err
	}
	if err := t.fold(cfg); err != nil {
		return nil, err
	}
	t.m["trace.overhead_frac"] = 1 - res.metrics["ingest_rows_per_s"]/plain.metrics["ingest_rows_per_s"]
	if err := t.replayOffline(cfg); err != nil {
		return nil, err
	}
	t.print(cfg.workload)
	return &result{attempted: res.attempted, failed: res.failed, metrics: t.m}, nil
}

// interval arithmetic on [a, b) pairs.
type ival struct{ a, b time.Time }

func clip(v ival, w ival) ival {
	if v.a.Before(w.a) {
		v.a = w.a
	}
	if v.b.After(w.b) {
		v.b = w.b
	}
	if v.b.Before(v.a) {
		v.b = v.a
	}
	return v
}

// unionLen is the total length covered by vs.
func unionLen(vs []ival) time.Duration {
	sort.Slice(vs, func(i, j int) bool { return vs[i].a.Before(vs[j].a) })
	var total time.Duration
	var cur ival
	for i, v := range vs {
		if i == 0 || v.a.After(cur.b) {
			total += cur.b.Sub(cur.a)
			cur = v
			continue
		}
		if v.b.After(cur.b) {
			cur.b = v.b
		}
	}
	return total + cur.b.Sub(cur.a)
}

// fold joins the spans and computes every per-layer metric the run
// itself can give.
func (t *tracer) fold(cfg config) error {
	m := t.m
	cycles := t.recs
	sort.Slice(cycles, func(i, j int) bool {
		if cycles[i].router != cycles[j].router {
			return cycles[i].router < cycles[j].router
		}
		return cycles[i].start.Before(cycles[j].start)
	})
	first := map[int]int{}
	for i := len(cycles) - 1; i >= 0; i-- {
		first[cycles[i].router] = i
	}
	parentOf := func(router int, at time.Time) int {
		lo, ok := first[router]
		if !ok {
			return -1
		}
		hi := lo
		for hi < len(cycles) && cycles[hi].router == router {
			hi++
		}
		k := sort.Search(hi-lo, func(k int) bool { return cycles[lo+k].start.After(at) }) - 1
		if k < 0 || !at.Before(cycles[lo+k].end) {
			return -1
		}
		return lo + k
	}

	// Join requests to cycles and, through the keys in their bodies,
	// store applies to requests.
	byTrace := map[string]int{}
	reqTrace := make([]string, len(t.https))
	var dec wire.Decoder
	var it wire.Item
	items, rows, non2xx := 0, 0, 0
	for i, h := range t.https {
		h.parent = parentOf(h.router, h.start)
		if h.status < 200 || h.status > 299 {
			non2xx++
		}
		if h.body == nil {
			continue
		}
		if err := dec.Reset(h.body); err != nil {
			return fmt.Errorf("captured body %d: %w", i, err)
		}
		for {
			err := dec.Next(&it)
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("captured body %d: %w", i, err)
			}
			id := trace.IDFromKey(it.Key)
			if reqTrace[i] == "" {
				reqTrace[i] = id
			}
			byTrace[id] = i
			items++
			rows += it.Payload.Rows()
		}
	}
	applyParent := make([]int, len(t.applies))
	applyTrace := make([]string, len(t.applies))
	reqApplies := make([][]ival, len(t.https))
	dups := 0
	var applyUs []float64
	var applyIvals []ival
	for i, a := range t.applies {
		applyTrace[i] = trace.IDFromKey(a.key)
		p, ok := byTrace[applyTrace[i]]
		if !ok {
			p = -1
		} else {
			reqApplies[p] = append(reqApplies[p], ival{a.start, a.end})
		}
		applyParent[i] = p
		if !a.applied {
			dups++
		}
		applyUs = append(applyUs, us(a.end.Sub(a.start)))
		applyIvals = append(applyIvals, clip(ival{a.start, a.end}, ival{t.ph.t0, t.ph.end}))
	}

	// Blocking-path ledger per cycle: export and heartbeat are the
	// gateway's own calls; after the beat, time inside a round trip is
	// http (store.apply while an apply of that request runs), and time
	// inside none is spool idle — the drainer waking, encoding, handling
	// the reply, and Flush polling.
	reqsOf := make([][]int, len(cycles))
	for i, h := range t.https {
		if h.parent >= 0 {
			reqsOf[h.parent] = append(reqsOf[h.parent], i)
		}
	}
	var tot struct{ cycle, export, beat, http, apply, idle time.Duration }
	var closureErr time.Duration
	var idleMs, exportUs, beatUs []float64
	for c, cy := range cycles {
		tail := ival{cy.beat, cy.end}
		var reqs []ival
		var httpSelf, applySelf time.Duration
		for _, i := range reqsOf[c] {
			h := t.https[i]
			r := clip(ival{h.start, h.end}, tail)
			reqs = append(reqs, r)
			var inner []ival
			for _, a := range reqApplies[i] {
				inner = append(inner, clip(a, r))
			}
			ap := unionLen(inner)
			applySelf += ap
			httpSelf += r.b.Sub(r.a) - ap
		}
		idle := tail.b.Sub(tail.a) - unionLen(reqs)
		export := cy.exported.Sub(cy.start)
		beat := cy.beat.Sub(cy.exported)
		dur := cy.end.Sub(cy.start)
		sum := export + beat + httpSelf + applySelf + idle
		if d := sum - dur; d > 0 {
			closureErr += d
		} else {
			closureErr -= d
		}
		tot.cycle += dur
		tot.export += export
		tot.beat += beat
		tot.http += httpSelf
		tot.apply += applySelf
		tot.idle += idle
		idleMs = append(idleMs, ms(idle))
		exportUs = append(exportUs, us(export))
		beatUs = append(beatUs, us(beat))
	}
	if tot.cycle == 0 {
		return fmt.Errorf("traced run recorded no cycles")
	}
	cyc := float64(tot.cycle)
	closure := float64(closureErr) / cyc
	fmt.Fprintf(os.Stderr, "ledger (%d cycles, blocking-path self time as a share of cycle time): client.export %.1f%%  heartbeat.send %.1f%%  http %.1f%%  store.apply %.1f%%  unattributed (spool idle) %.1f%%\n",
		len(cycles), 100*float64(tot.export)/cyc, 100*float64(tot.beat)/cyc, 100*float64(tot.http)/cyc,
		100*float64(tot.apply)/cyc, 100*float64(tot.idle)/cyc)
	fmt.Fprintf(os.Stderr, "ledger closure: self times sum to the measured cycles within %.4f%% (tolerance %.1f%%)\n",
		100*closure, 100*closureTolerance)
	if closure > closureTolerance {
		return fmt.Errorf("ledger does not close: %.3f%% of cycle time unaccounted, tolerance %.1f%%", 100*closure, 100*closureTolerance)
	}
	m["ledger.unattributed_frac"] = float64(tot.idle) / cyc
	m["ledger.closure_err_frac"] = closure

	var rtt, wait []float64
	reqBytes := 0
	for _, h := range t.https {
		rtt = append(rtt, ms(h.end.Sub(h.start)))
		wait = append(wait, float64(h.connWait.Load())/1e6)
		reqBytes += h.bytes
	}
	m["client.export_us_p50"] = median(exportUs)
	m["spool.items_per_batch"] = float64(items) / float64(countBodies(t.https))
	m["spool.idle_ms_p50"] = median(idleMs)
	m["http.requests"] = float64(len(t.https))
	m["http.conn_wait_ms_p50"] = median(wait)
	m["http.rtt_ms_p50"] = quantile(rtt, 0.50)
	m["http.rtt_ms_p99"] = quantile(rtt, 0.99)
	m["http.req_bytes_per_row"] = float64(reqBytes) / float64(rows)
	m["http.non2xx_frac"] = float64(non2xx) / float64(len(t.https))

	m["store.apply_us_p50"] = quantile(applyUs, 0.50)
	m["store.apply_us_p99"] = quantile(applyUs, 0.99)
	m["store.applies"] = float64(len(t.applies))
	m["store.dup_frac"] = float64(dups) / float64(len(t.applies))
	m["store.busy_frac"] = float64(unionLen(applyIvals)) / float64(t.ph.end.Sub(t.ph.t0))

	m["segment.seals"] = float64(t.seals)
	m["segment.rows_per_seal"] = 0
	if t.seals > 0 {
		m["segment.rows_per_seal"] = float64(t.sealRows) / float64(t.seals)
	}
	m["segment.compactions"] = float64(compactions(t.segMetas))
	m["segment.files_end"] = float64(len(t.segMetas))
	m["segment.bytes_per_row"] = 0
	if t.storeRows > 0 {
		m["segment.bytes_per_row"] = float64(t.segBytes) / float64(t.storeRows)
	}
	m["segment.open_ms"] = medianOr0(t.openTimes)
	m["segment.merge_ms"] = medianOr0(t.mergeTime)
	m["figures.all_ms"] = medianOr0(t.allTimes)
	m["figures.dashboard_open_ms"] = ms(t.dashOpen)
	m["analysis.partial_raw_flow_rows"] = float64(t.dashStats.RawFlowRows)
	m["analysis.partial_flow_aggregates"] = float64(t.dashStats.FlowAggregates)

	m["heartbeat.sent"] = float64(len(cycles))
	m["heartbeat.recorded_frac"] = float64(t.recorded) / float64(len(cycles))
	m["heartbeat.send_us_p50"] = median(beatUs)

	p := t.ph
	m["proc.cpu_us_per_row"] = us(p.procE.cpu-p.proc0.cpu) / float64(t.rows)
	m["proc.gc_cycles"] = float64(p.procE.numGC - p.proc0.numGC)
	m["proc.gc_pause_ms"] = float64(p.procE.pauseNs-p.proc0.pauseNs) / 1e6

	return t.writeSpans(cfg, cycles, reqTrace, applyParent, applyTrace)
}

func countBodies(hs []*httpRec) int {
	n := 0
	for _, h := range hs {
		if h.body != nil {
			n++
		}
	}
	return n
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// compactions counts the distinct multi-segment ranges the surviving
// segments are or replaced: each is one compaction's output.
func compactions(metas []segment.Meta) int {
	seen := map[segment.SeqRange]bool{}
	for _, mt := range metas {
		for _, r := range append([]segment.SeqRange{mt.Seq}, mt.Replaces...) {
			if r.First != r.Last {
				seen[r] = true
			}
		}
	}
	return len(seen)
}

// writeSpans dumps every span as CSV (id, parent, name, router,
// start_ns, end_ns, trace) relative to the phase start, next to the
// run's scratch directory.
func (t *tracer) writeSpans(cfg config, cycles []cycleRec, reqTrace []string, applyParent []int, applyTrace []string) error {
	path := filepath.Join(filepath.Dir(cfg.dataDir), "spans-"+cfg.workload+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	rel := func(at time.Time) int64 { return int64(at.Sub(t.t0)) }
	fmt.Fprintln(w, "id,parent,name,router,start_ns,end_ns,trace")
	id := 0
	cycleID := make([]int, len(cycles))
	for c, cy := range cycles {
		cycleID[c] = id
		fmt.Fprintf(w, "%d,,cycle,%d,%d,%d,\n", id, cy.router, rel(cy.start), rel(cy.end))
		fmt.Fprintf(w, "%d,%d,client.export,%d,%d,%d,\n", id+1, id, cy.router, rel(cy.start), rel(cy.exported))
		fmt.Fprintf(w, "%d,%d,heartbeat.send,%d,%d,%d,\n", id+2, id, cy.router, rel(cy.exported), rel(cy.beat))
		id += 3
	}
	reqID := make([]int, len(t.https))
	for i, h := range t.https {
		reqID[i] = id
		parent := ""
		if h.parent >= 0 {
			parent = fmt.Sprint(cycleID[h.parent])
		}
		fmt.Fprintf(w, "%d,%s,http.request,%d,%d,%d,%s\n", id, parent, h.router, rel(h.start), rel(h.end), reqTrace[i])
		id++
	}
	for i, a := range t.applies {
		parent, router := "", ""
		if p := applyParent[i]; p >= 0 {
			parent, router = fmt.Sprint(reqID[p]), fmt.Sprint(t.https[p].router)
		}
		fmt.Fprintf(w, "%d,%s,store.apply,%s,%d,%d,%s\n", id, parent, router, rel(a.start), rel(a.end), applyTrace[i])
		id++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", id, path)
	return nil
}

// ---- offline replays of the captured bodies ----

// frontSample bounds how many captured bodies the front-vs-direct replay
// posts to each side.
const frontSample = 600

func (t *tracer) replayOffline(cfg config) error {
	var bodies [][]byte
	for _, h := range t.https {
		if h.body != nil {
			bodies = append(bodies, h.body)
		}
	}
	t.https, t.applies = nil, nil
	if len(bodies) == 0 {
		return fmt.Errorf("traced run captured no request bodies")
	}
	if err := t.wireReplay(bodies); err != nil {
		return err
	}
	step := (len(bodies) + frontSample - 1) / frontSample
	var sample [][]byte
	for i := 0; i < len(bodies); i += step {
		sample = append(sample, bodies[i])
	}
	return t.frontReplay(sample)
}

// wireReplay times NPB1 decode (one warm decoder, as the collector's
// pool keeps them) and encode (AppendBatch into a reused buffer, as the
// client does) over every captured body.
func (t *tracer) wireReplay(bodies [][]byte) error {
	var dec wire.Decoder
	var it wire.Item
	rows := 0
	decodeAll := func(keep func(wire.Item)) error {
		for _, b := range bodies {
			if err := dec.Reset(b); err != nil {
				return err
			}
			for {
				err := dec.Next(&it)
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				if keep != nil {
					keep(it.Clone())
				}
			}
		}
		return nil
	}
	if err := decodeAll(func(it wire.Item) { rows += it.Payload.Rows() }); err != nil { // warms the decoder
		return err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := decodeAll(nil); err != nil {
		return err
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	t.m["wire.decode_ns_per_row"] = float64(d.Nanoseconds()) / float64(rows)
	t.m["wire.decode_allocs_per_row"] = float64(m1.Mallocs-m0.Mallocs) / float64(rows)

	batches := make([][]wire.Item, len(bodies))
	stripped := make([][]wire.Item, len(bodies))
	for i, b := range bodies {
		if err := dec.Reset(b); err != nil {
			return err
		}
		for {
			err := dec.Next(&it)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			c := it.Clone()
			batches[i] = append(batches[i], c)
			c.Trace = nil
			stripped[i] = append(stripped[i], c)
		}
	}
	var buf []byte
	start = time.Now()
	for _, items := range batches {
		buf = wire.AppendBatch(buf[:0], items)
	}
	t.m["wire.encode_ns_per_row"] = float64(time.Since(start).Nanoseconds()) / float64(rows)
	payloadBytes := 0
	for _, items := range stripped {
		buf = wire.AppendBatch(buf[:0], items)
		payloadBytes += len(buf)
	}
	t.m["wire.bytes_per_row"] = float64(payloadBytes) / float64(rows)
	return nil
}

// frontReplay posts the same captured bodies, one at a time, to a fresh
// front with three in-memory nodes at replication 2 and to a fresh lone
// node, and compares their round trips.
func (t *tracer) frontReplay(sample [][]byte) error {
	rows := 0
	var dec wire.Decoder
	var it wire.Item
	for _, b := range sample {
		if err := dec.Reset(b); err != nil {
			return err
		}
		for dec.Next(&it) == nil {
			rows += it.Payload.Rows()
		}
	}
	post := func(addr string) ([]float64, uint64, error) {
		tr := newTransport()
		defer tr.CloseIdleConnections()
		c := &http.Client{Transport: tr, Timeout: 30 * time.Second}
		var lat []float64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, b := range sample {
			start := time.Now()
			resp, err := c.Post("http://"+addr+"/v1/batch", wire.ContentTypeBinary, bytes.NewReader(b))
			if err != nil {
				return nil, 0, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, 0, fmt.Errorf("front-vs-direct replay: POST %s: status %d", addr, resp.StatusCode)
			}
			lat = append(lat, ms(time.Since(start)))
		}
		runtime.ReadMemStats(&m1)
		return lat, m1.Mallocs - m0.Mallocs, nil
	}

	lone, err := cluster.NewNode(cluster.NodeConfig{
		ID: "direct-node", UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
	})
	if err != nil {
		return err
	}
	direct, _, err := post(lone.DataAddr())
	lone.Close()
	if err != nil {
		return err
	}

	nodes, front, err := startCluster(clusterNodes, "replay", func(s dataset.IngestStore) dataset.IngestStore { return s })
	if err != nil {
		return err
	}
	viaFront, allocs, err := post(front.HTTPAddr())
	frames, jbytes := 0, 0
	for _, nd := range nodes {
		f, b, _ := nd.JournalStats()
		frames += f
		jbytes += b
	}
	front.Close()
	for _, nd := range nodes {
		nd.Close()
	}
	if err != nil {
		return err
	}
	t.m["front.rtt_ms_p50"] = median(viaFront)
	t.m["node.direct_rtt_ms_p50"] = median(direct)
	t.m["front.overhead_ratio"] = median(viaFront) / median(direct)
	t.m["front.allocs_per_batch"] = float64(allocs) / float64(len(sample))
	if t.journalRows == 0 {
		// No live cluster in this workload: the journal figures come from
		// the replay's nodes.
		t.journalFrames, t.journalBytes, t.journalRows = frames, jbytes, rows
	}
	t.m["journal.frames"] = float64(t.journalFrames)
	t.m["journal.bytes_per_row"] = float64(t.journalBytes) / float64(t.journalRows)
	fmt.Fprintf(os.Stderr, "front-vs-direct: %d captured bodies (%d rows) each side; front p50 %.2fms, direct p50 %.2fms\n",
		len(sample), rows, median(viaFront), median(direct))
	return nil
}

// print writes the per-layer table with what each metric should move.
func (t *tracer) print(workload string) {
	fmt.Fprintf(os.Stderr, "per-layer ledger, %s:\n", workload)
	for _, mt := range perLayer {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-10s moves: %s\n", mt.name, t.m[mt.name], mt.unit, mt.moves)
	}
}
