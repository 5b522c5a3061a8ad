// Package loadgen drives a collector with a synthetic router fleet. It
// is the platform's scale harness: N thousand routers' worth of
// realistic upload traffic — the row shapes the world simulator
// produces, without paying for full home simulation — pushed through
// the real /v1/* and /v1/batch HTTP endpoints over keep-alive
// connections, with ramp-up, duty cycling, and a configurable payload
// mix.
//
// Delivery is at-least-once with idempotency keys, exactly like the
// production gateway spool: any transport error, 5xx, or 429 is retried
// with backoff (honoring Retry-After), and every upload carries a
// router-prefixed key so server-side dedupe makes the retries safe.
// That lets the generator do strict accounting: every generated row is
// counted at generation time, and Run compares the collector's /v1/stats
// row counts before and after the run. A healthy run loses zero rows no
// matter how many requests were throttled, failed, or replayed.
package loadgen

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
	"natpeek/internal/telemetry"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// Mix weighs the upload endpoints in the generated traffic. Zero-valued
// mixes fall back to DefaultMix.
type Mix struct {
	Uptime     float64
	Capacity   float64
	Devices    float64
	WiFi       float64
	Flows      float64
	Throughput float64
}

// DefaultMix approximates a deployed router's upload profile: frequent
// passive measurements (flows, throughput), periodic active ones.
var DefaultMix = Mix{Uptime: 1, Capacity: 0.5, Devices: 1, WiFi: 1, Flows: 3, Throughput: 2}

func (m Mix) weights() []float64 {
	w := []float64{m.Uptime, m.Capacity, m.Devices, m.WiFi, m.Flows, m.Throughput}
	total := 0.0
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return DefaultMix.weights()
	}
	return w
}

// Config parameterizes a load run.
type Config struct {
	// BaseURL is the collector's upload API root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Routers is the synthetic fleet size.
	Routers int
	// Ramp spreads router start times uniformly across this window, so a
	// run models fleet-wide deployment rather than a thundering herd.
	Ramp time.Duration
	// Cycles is how many reporting cycles each router runs.
	Cycles int
	// Interval is the pause between a router's cycles; 0 runs cycles
	// back-to-back (time-compressed soak).
	Interval time.Duration
	// Duty is the probability a cycle actually reports (a powered-off
	// home skips cycles). 0 means always-on.
	Duty float64
	// PayloadsPerCycle is how many uploads an active cycle emits
	// (default 4), drawn from Mix.
	PayloadsPerCycle int
	// Mix weighs the endpoints; zero value uses DefaultMix.
	Mix Mix
	// FlowsPerPayload / SamplesPerPayload size the slice-valued payloads
	// (defaults 8 and 6).
	FlowsPerPayload   int
	SamplesPerPayload int
	// BatchSize groups uploads into /v1/batch POSTs (default 32).
	BatchSize int
	// DirectFraction routes this share of uploads as individual keyed
	// /v1/* POSTs instead of batches, covering both server paths
	// (default 0.1).
	DirectFraction float64
	// Workers is the HTTP delivery concurrency (default 8).
	Workers int
	// Wire selects the batch encoding: "binary" (default) ships NPB2,
	// matching what a deployed gateway negotiates; "json" forces the
	// legacy encoding so soaks keep covering that server path too.
	// Direct uploads are always JSON — /v1/* endpoints have no binary
	// form.
	Wire string
	// Gzip compresses batch request bodies with Content-Encoding: gzip.
	Gzip bool
	// Seed makes the generated rows deterministic. Idempotency keys get
	// a per-run nonce on top, so re-running the same seed against a
	// live server still stores fresh rows.
	Seed uint64
	// Start anchors generated timestamps (default 2013-04-01, the
	// BISmark study window).
	Start time.Time
	// Registrations: each router registers synchronously before its
	// first cycle (default true; disable only when re-driving a server
	// that already knows the fleet).
	SkipRegister bool
}

func (c Config) withDefaults() Config {
	if c.Routers <= 0 {
		c.Routers = 1
	}
	if c.Cycles <= 0 {
		c.Cycles = 1
	}
	if c.Duty <= 0 || c.Duty > 1 {
		c.Duty = 1
	}
	if c.PayloadsPerCycle <= 0 {
		c.PayloadsPerCycle = 4
	}
	if c.FlowsPerPayload <= 0 {
		c.FlowsPerPayload = 8
	}
	if c.SamplesPerPayload <= 0 {
		c.SamplesPerPayload = 6
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.DirectFraction < 0 || c.DirectFraction > 1 {
		c.DirectFraction = 0.1
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Wire == "" {
		c.Wire = "binary"
	}
	return c
}

// Rows counts generated rows per data set.
type Rows struct {
	Uptime     int64
	Capacity   int64
	Counts     int64
	Sightings  int64
	WiFi       int64
	Flows      int64
	Throughput int64
}

// Total sums every data set.
func (r Rows) Total() int64 {
	return r.Uptime + r.Capacity + r.Counts + r.Sightings + r.WiFi + r.Flows + r.Throughput
}

// Report summarizes a load run.
type Report struct {
	Cfg      Config        `json:"-"`
	Routers  int           `json:"routers"`
	Duration time.Duration `json:"duration_ns"`

	Generated Rows  `json:"generated"`
	Uploads   int64 `json:"uploads"`
	Batches   int64 `json:"batches"`
	Requests  int64 `json:"requests"`
	Retries   int64 `json:"retries"`
	Throttled int64 `json:"throttled_429"`

	Applied    int64 `json:"applied"`
	Duplicates int64 `json:"duplicates"`
	Rejected   int64 `json:"rejected"`

	// Lost is generated rows minus the collector's row-count delta —
	// zero on a healthy run, regardless of retries and throttling.
	Lost       int64 `json:"lost_rows"`
	StatsDelta Rows  `json:"stats_delta"`

	RowsPerSec    float64       `json:"rows_per_sec"`
	UploadsPerSec float64       `json:"uploads_per_sec"`
	P50           time.Duration `json:"latency_p50_ns"`
	P90           time.Duration `json:"latency_p90_ns"`
	P99           time.Duration `json:"latency_p99_ns"`

	// SlowRows is per-row lineage for the slowest uploads by
	// generation→ack latency: each carries the trace ID derived from its
	// idempotency key, so a slow row in the report can be pulled up as a
	// full waterfall at the collector's /debug/traces/{id}.
	SlowRows []RowLineage `json:"slow_rows,omitempty"`
	// ThrottledTraces are server-side trace IDs returned in 429
	// responses (X-Natpeek-Trace), correlating this run's Retry-After
	// waits with the collector's throttle spans. Bounded sample.
	ThrottledTraces []string `json:"throttled_traces,omitempty"`
}

// RowLineage ties one upload's delivery history to its server-side
// trace: how long from row generation to acknowledged delivery, and
// over how many HTTP attempts.
type RowLineage struct {
	Key      string        `json:"key"`
	TraceID  string        `json:"trace_id"`
	Endpoint string        `json:"endpoint"`
	Latency  time.Duration `json:"latency_ns"`
	Attempts int           `json:"attempts"`
}

// String renders the operator summary bismark-load prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d routers, %d uploads (%d rows) in %v\n",
		r.Routers, r.Uploads, r.Generated.Total(), r.Duration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  throughput: %.0f rows/s, %.0f uploads/s over %d requests (%d batches)\n",
		r.RowsPerSec, r.UploadsPerSec, r.Requests, r.Batches)
	fmt.Fprintf(&b, "  latency:    p50=%v p90=%v p99=%v\n",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	fmt.Fprintf(&b, "  delivery:   applied=%d duplicates=%d rejected=%d retries=%d throttled=%d\n",
		r.Applied, r.Duplicates, r.Rejected, r.Retries, r.Throttled)
	fmt.Fprintf(&b, "  accounting: lost rows = %d\n", r.Lost)
	for i, row := range r.SlowRows {
		if i >= 5 {
			break
		}
		fmt.Fprintf(&b, "  slow row:   %s %s %v over %d attempt(s), trace %s\n",
			row.Endpoint, row.Key, row.Latency.Round(time.Millisecond), row.Attempts, row.TraceID)
	}
	if len(r.ThrottledTraces) > 0 {
		fmt.Fprintf(&b, "  429 traces: %s\n", strings.Join(r.ThrottledTraces, " "))
	}
	return b.String()
}

// upload is one generated payload awaiting delivery. payload always
// carries the typed rows; body is the JSON encoding, marshaled only
// when a delivery path needs it (direct POSTs, or Wire "json").
type upload struct {
	endpoint string
	key      string
	payload  wire.Payload
	body     json.RawMessage
	direct   bool
	genAt    time.Time // row generation time; lineage measures genAt→ack
}

// router extracts the router ID from the upload's key ("id:nonce:seq").
func (u upload) router() string {
	if i := strings.IndexByte(u.key, ':'); i > 0 {
		return u.key[:i]
	}
	return ""
}

type runner struct {
	cfg     Config
	httpc   *http.Client
	nonce   string
	weights []float64

	work chan upload

	requests  atomic.Int64
	retries   atomic.Int64
	throttled atomic.Int64
	batches   atomic.Int64

	applied    atomic.Int64
	duplicates atomic.Int64
	rejected   atomic.Int64

	mu              sync.Mutex
	latencies       []time.Duration
	firstErr        error
	slow            []RowLineage // sorted by Latency descending, capped
	throttledTraces []string

	hLatency *telemetry.Histogram
	mRows    *telemetry.CounterVec
}

// Run executes one load run against a live collector and returns the
// accounting report. Any router registration failure, unrecoverable
// delivery error, or context cancellation aborts the run with an error;
// retryable failures (transport errors, 5xx, 429) are retried with
// backoff until ctx is done.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Wire != "binary" && cfg.Wire != "json" {
		return nil, fmt.Errorf("loadgen: unknown wire format %q (want binary or json)", cfg.Wire)
	}
	var nb [8]byte
	if _, err := rand.Read(nb[:]); err != nil {
		return nil, fmt.Errorf("loadgen: nonce: %w", err)
	}
	reg := telemetry.Default
	r := &runner{
		cfg: cfg,
		httpc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Workers * 2,
				MaxIdleConnsPerHost: cfg.Workers * 2,
			},
		},
		nonce:   hex.EncodeToString(nb[:]),
		weights: cfg.Mix.weights(),
		work:    make(chan upload, cfg.Workers*cfg.BatchSize),
		hLatency: reg.Histogram("natpeek_loadgen_request_seconds",
			"Load-generator request latency (batches and direct uploads).", nil),
		mRows: reg.CounterVec("natpeek_loadgen_rows_total",
			"Rows generated by the load generator, per data set.", "dataset"),
	}

	before, err := r.fetchStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: stats before run: %w", err)
	}

	start := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Delivery workers: shared keep-alive pool draining the work channel.
	var workers sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			r.deliver(runCtx)
		}()
	}

	// Router fleet: each router ramps in, registers, then generates its
	// cycles. Generation is cheap; delivery backpressure comes from the
	// bounded work channel.
	gen := &generator{cfg: cfg}
	var routers sync.WaitGroup
	routerErr := make(chan error, 1)
	for i := 0; i < cfg.Routers; i++ {
		routers.Add(1)
		go func(i int) {
			defer routers.Done()
			if err := r.runRouter(runCtx, gen, i); err != nil {
				select {
				case routerErr <- err:
					cancel()
				default:
				}
			}
		}(i)
	}
	routers.Wait()
	close(r.work)
	workers.Wait()

	select {
	case err := <-routerErr:
		return nil, err
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: run aborted: %w", err)
	}
	r.mu.Lock()
	firstErr := r.firstErr
	r.mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}

	after, err := r.fetchStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: stats after run: %w", err)
	}
	return r.report(gen, before, after, time.Since(start)), nil
}

// generator owns the fleet-wide row accounting.
type generator struct {
	cfg  Config
	rows Rows

	uploads atomic.Int64

	mu sync.Mutex // guards rows
}

func (g *generator) count(rows Rows) {
	g.mu.Lock()
	g.rows.Uptime += rows.Uptime
	g.rows.Capacity += rows.Capacity
	g.rows.Counts += rows.Counts
	g.rows.Sightings += rows.Sightings
	g.rows.WiFi += rows.WiFi
	g.rows.Flows += rows.Flows
	g.rows.Throughput += rows.Throughput
	g.mu.Unlock()
}

func (g *generator) total() Rows {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rows
}

func routerID(i int) string { return fmt.Sprintf("load-%05d", i) }

// runRouter ramps in, registers, and emits the router's cycles.
func (r *runner) runRouter(ctx context.Context, gen *generator, i int) error {
	cfg := r.cfg
	if cfg.Ramp > 0 && cfg.Routers > 1 {
		delay := cfg.Ramp * time.Duration(i) / time.Duration(cfg.Routers)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil
		}
	}
	id := routerID(i)
	if !cfg.SkipRegister {
		if err := r.register(ctx, id); err != nil {
			return fmt.Errorf("loadgen: register %s: %w", id, err)
		}
	}
	stream := rng.New(cfg.Seed).ChildN("router", i)
	seq := 0
	for c := 0; c < cfg.Cycles; c++ {
		if ctx.Err() != nil {
			return nil
		}
		if cfg.Duty < 1 && !stream.Bool(cfg.Duty) {
			continue
		}
		for p := 0; p < cfg.PayloadsPerCycle; p++ {
			up, rows, err := r.payload(gen, id, i, c, seq, stream)
			if err != nil {
				return err
			}
			seq++
			gen.count(rows)
			gen.uploads.Add(1)
			select {
			case r.work <- up:
			case <-ctx.Done():
				return nil
			}
		}
		if cfg.Interval > 0 && c < cfg.Cycles-1 {
			select {
			case <-time.After(cfg.Interval):
			case <-ctx.Done():
				return nil
			}
		}
	}
	return nil
}

// payload generates one upload: endpoint chosen from the mix, rows
// shaped like the world simulator's, key prefixed with the router ID so
// replays route to the same store shard. Rows are built as a typed
// wire.Payload; the JSON encoding is derived from it only for delivery
// paths that ship JSON, so binary runs never round-trip through text.
func (r *runner) payload(gen *generator, id string, router, cycle, seq int, stream *rng.Stream) (upload, Rows, error) {
	cfg := r.cfg
	at := cfg.Start.Add(time.Duration(cycle) * time.Hour).Add(time.Duration(seq%60) * time.Minute)
	var (
		endpoint string
		p        wire.Payload
		rows     Rows
	)
	switch stream.WeightedChoice(r.weights) {
	case 0:
		endpoint = "/v1/uptime"
		p.Kind = wire.KindUptime
		p.Uptime = dataset.UptimeReport{RouterID: id, ReportedAt: at,
			Uptime: time.Duration(stream.Intn(14*24*3600)) * time.Second}
		rows.Uptime = 1
		r.mRows.With("uptime").Inc()
	case 1:
		endpoint = "/v1/capacity"
		p.Kind = wire.KindCapacity
		p.Capacity = dataset.CapacityMeasure{RouterID: id, MeasuredAt: at,
			UpBps: stream.Range(4e5, 1e7), DownBps: stream.Range(1e6, 1e8)}
		rows.Capacity = 1
		r.mRows.With("capacity").Inc()
	case 2:
		endpoint = "/v1/devices"
		n := 1 + stream.Intn(4)
		sightings := make([]dataset.DeviceSighting, n)
		for j := range sightings {
			sightings[j] = dataset.DeviceSighting{RouterID: id, At: at,
				Device: mac.FromOUI(0x001CB3, uint32(router*1000+j)),
				Kind:   dataset.ConnKind(stream.Intn(3))}
		}
		p.Kind = wire.KindDevices
		p.Count = dataset.DeviceCount{RouterID: id, At: at, Wired: stream.Intn(3), W24: stream.Intn(6), W5: stream.Intn(4)}
		p.Sightings = sightings
		rows.Counts = 1
		rows.Sightings = int64(n)
		r.mRows.With("devices").Inc()
	case 3:
		endpoint = "/v1/wifi"
		scans := make([]dataset.WiFiScan, 2)
		for j, band := range []string{"2.4GHz", "5GHz"} {
			scans[j] = dataset.WiFiScan{RouterID: id, At: at, Band: band,
				Channel: 1 + stream.Intn(11), VisibleAPs: stream.Intn(25), Clients: stream.Intn(6)}
		}
		p.Kind = wire.KindWiFi
		p.WiFi = scans
		rows.WiFi = int64(len(scans))
		r.mRows.With("wifi").Inc()
	case 4:
		endpoint = "/v1/traffic/flows"
		flows := make([]dataset.FlowRecord, cfg.FlowsPerPayload)
		for j := range flows {
			flows[j] = dataset.FlowRecord{RouterID: id,
				Device: mac.FromOUI(0x001CB3, uint32(router*1000+j)),
				Domain: fmt.Sprintf("anon-%016x", stream.Uint64()), Proto: "tcp",
				First: at, Last: at.Add(time.Duration(1+stream.Intn(300)) * time.Second),
				UpBytes: stream.Int63() % 1e6, DownBytes: stream.Int63() % 1e8,
				UpPkts: int64(stream.Intn(1e4)), DownPkts: int64(stream.Intn(1e5)),
				Conns: 1 + int64(stream.Intn(9))}
		}
		p.Kind = wire.KindFlows
		p.Flows = flows
		rows.Flows = int64(len(flows))
		r.mRows.With("flows").Inc()
	default:
		endpoint = "/v1/traffic/throughput"
		samples := make([]dataset.ThroughputSample, cfg.SamplesPerPayload)
		for j := range samples {
			samples[j] = dataset.ThroughputSample{RouterID: id,
				Minute:  at.Add(time.Duration(j) * time.Minute),
				Dir:     []string{"up", "down"}[j%2],
				PeakBps: stream.Range(1e4, 1e8), TotalBytes: stream.Int63() % 1e8}
		}
		p.Kind = wire.KindThroughput
		p.Throughput = samples
		rows.Throughput = int64(len(samples))
		r.mRows.With("throughput").Inc()
	}
	up := upload{
		endpoint: endpoint,
		key:      id + ":" + r.nonce + ":" + strconv.Itoa(seq),
		payload:  p,
		direct:   stream.Bool(cfg.DirectFraction),
		genAt:    time.Now(),
	}
	if up.direct || cfg.Wire == "json" {
		body, err := p.JSONBody()
		if err != nil {
			return upload{}, Rows{}, fmt.Errorf("loadgen: marshal %s: %w", endpoint, err)
		}
		up.body = body
	}
	return up, rows, nil
}

// deliver drains the work channel: direct uploads POST individually
// with an Idempotency-Key header; the rest group into /v1/batch POSTs.
func (r *runner) deliver(ctx context.Context) {
	batch := make([]upload, 0, r.cfg.BatchSize)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		r.postBatch(ctx, batch)
		batch = batch[:0]
	}
	for up := range r.work {
		if up.direct {
			r.postDirect(ctx, up)
			continue
		}
		batch = append(batch, up)
		if len(batch) >= r.cfg.BatchSize {
			flush()
		}
	}
	flush()
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// retryLoop POSTs with at-least-once semantics: transport errors, 5xx,
// and 429 retry with exponential backoff (429's Retry-After is honored,
// capped at the max backoff); 4xx other than 429 is a generator bug and
// fails the run. It returns the response body for result accounting and
// the number of HTTP attempts made (for per-row lineage).
func (r *runner) retryLoop(ctx context.Context, mk func() (*http.Request, error)) ([]byte, int, bool) {
	backoff := 10 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return nil, attempt, false
		}
		req, err := mk()
		if err != nil {
			r.fail(err)
			return nil, attempt, false
		}
		start := time.Now()
		resp, err := r.httpc.Do(req.WithContext(ctx))
		lat := time.Since(start)
		r.requests.Add(1)
		r.hLatency.Observe(lat.Seconds())
		r.mu.Lock()
		r.latencies = append(r.latencies, lat)
		r.mu.Unlock()

		wait := backoff
		if err == nil {
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode < 300 && rerr == nil:
				return body, attempt + 1, true
			case resp.StatusCode == http.StatusTooManyRequests:
				r.throttled.Add(1)
				r.noteThrottledTrace(resp.Header.Get("X-Natpeek-Trace"))
				if ra, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && ra >= 0 {
					if d := time.Duration(ra) * time.Second; d < maxBackoff && d > wait {
						wait = d
					}
				}
			case resp.StatusCode >= 300 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests:
				r.fail(fmt.Errorf("loadgen: %s: status %d: %s", req.URL.Path, resp.StatusCode,
					strings.TrimSpace(string(body))))
				return nil, attempt + 1, false
			}
			// 5xx (and read errors): fall through to retry.
		}
		r.retries.Add(1)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, attempt + 1, false
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// maxSlowRows / maxThrottledTraces bound the lineage carried in the
// report: enough to chase the worst offenders, not a per-row ledger.
const (
	maxSlowRows        = 10
	maxThrottledTraces = 8
)

// noteThrottledTrace samples server trace IDs from 429 responses.
func (r *runner) noteThrottledTrace(id string) {
	if id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.throttledTraces) >= maxThrottledTraces {
		return
	}
	for _, seen := range r.throttledTraces {
		if seen == id {
			return
		}
	}
	r.throttledTraces = append(r.throttledTraces, id)
}

// recordLineage folds acknowledged uploads into the top-N slowest set.
func (r *runner) recordLineage(ups []upload, ackAt time.Time, attempts int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, up := range ups {
		lat := ackAt.Sub(up.genAt)
		if len(r.slow) >= maxSlowRows && lat <= r.slow[len(r.slow)-1].Latency {
			continue
		}
		r.slow = append(r.slow, RowLineage{
			Key: up.key, TraceID: trace.IDFromKey(up.key),
			Endpoint: up.endpoint, Latency: lat, Attempts: attempts,
		})
		sort.Slice(r.slow, func(i, j int) bool { return r.slow[i].Latency > r.slow[j].Latency })
		if len(r.slow) > maxSlowRows {
			r.slow = r.slow[:maxSlowRows]
		}
	}
}

func (r *runner) postBatch(ctx context.Context, ups []upload) {
	now := time.Now()
	// Client-side lineage: the queued span covers generation → first
	// POST; retries re-ship the same spans and merge server-side by
	// trace ID.
	traceFor := func(up upload) *trace.Wire {
		if !trace.Enabled() {
			return nil
		}
		return &trace.Wire{
			TraceID: trace.IDFromKey(up.key),
			Router:  up.router(),
			Spans: []trace.Span{{Name: "loadgen.queued", Start: up.genAt, End: now,
				Status: trace.StatusOK}},
		}
	}
	var (
		body        []byte
		contentType string
	)
	if r.cfg.Wire == "binary" {
		items := make([]wire.Item, len(ups))
		for i, up := range ups {
			items[i] = wire.Item{Endpoint: up.endpoint, Key: up.key,
				Payload: up.payload, Trace: traceFor(up)}
		}
		body = wire.AppendBatch(nil, items)
		contentType = wire.ContentTypeBinary
	} else {
		items := make([]collector.BatchItem, len(ups))
		for i, up := range ups {
			items[i] = collector.BatchItem{Endpoint: up.endpoint, Key: up.key,
				Body: up.body, Trace: traceFor(up)}
		}
		var err error
		if body, err = json.Marshal(items); err != nil {
			r.fail(err)
			return
		}
		contentType = "application/json"
	}
	encoding := ""
	if r.cfg.Gzip {
		var zb bytes.Buffer
		zw := gzip.NewWriter(&zb)
		if _, err := zw.Write(body); err != nil {
			r.fail(err)
			return
		}
		if err := zw.Close(); err != nil {
			r.fail(err)
			return
		}
		body = zb.Bytes()
		encoding = "gzip"
	}
	resBody, attempts, ok := r.retryLoop(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, r.cfg.BaseURL+"/v1/batch", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", contentType)
			if encoding != "" {
				req.Header.Set("Content-Encoding", encoding)
			}
			req.Header.Set("Traceparent", trace.FormatTraceparent(trace.IDFromKey(ups[0].key)))
		}
		return req, err
	})
	if !ok {
		return
	}
	r.batches.Add(1)
	r.recordLineage(ups, time.Now(), attempts)
	var res collector.BatchResult
	if err := json.Unmarshal(resBody, &res); err != nil {
		r.fail(fmt.Errorf("loadgen: batch result: %w", err))
		return
	}
	r.applied.Add(int64(res.Applied))
	r.duplicates.Add(int64(res.Duplicates))
	r.rejected.Add(int64(res.Rejected))
}

func (r *runner) postDirect(ctx context.Context, up upload) {
	if _, attempts, ok := r.retryLoop(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, r.cfg.BaseURL+up.endpoint, bytes.NewReader(up.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("Idempotency-Key", up.key)
			req.Header.Set("Traceparent", trace.FormatTraceparent(trace.IDFromKey(up.key)))
		}
		return req, err
	}); ok {
		r.applied.Add(1)
		r.recordLineage([]upload{up}, time.Now(), attempts)
	}
}

func (r *runner) register(ctx context.Context, id string) error {
	body, err := json.Marshal(struct {
		RouterID string `json:"router_id"`
		Country  string `json:"country"`
	}{RouterID: id, Country: "US"})
	if err != nil {
		return err
	}
	if _, _, ok := r.retryLoop(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, r.cfg.BaseURL+"/v1/register", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}); !ok {
		r.mu.Lock()
		err := r.firstErr
		r.mu.Unlock()
		if err == nil {
			err = ctx.Err()
		}
		return err
	}
	return nil
}

func (r *runner) fetchStats(ctx context.Context) (collector.Stats, error) {
	var st collector.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.BaseURL+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := r.httpc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func (r *runner) report(gen *generator, before, after collector.Stats, dur time.Duration) *Report {
	rows := gen.total()
	delta := Rows{
		Uptime:     int64(after.Uptime - before.Uptime),
		Capacity:   int64(after.Capacity - before.Capacity),
		Counts:     int64(after.Counts - before.Counts),
		Sightings:  int64(after.Sightings - before.Sightings),
		WiFi:       int64(after.WiFi - before.WiFi),
		Flows:      int64(after.Flows - before.Flows),
		Throughput: int64(after.Throughput - before.Throughput),
	}
	rep := &Report{
		Cfg:        r.cfg,
		Routers:    r.cfg.Routers,
		Duration:   dur,
		Generated:  rows,
		Uploads:    gen.uploads.Load(),
		Batches:    r.batches.Load(),
		Requests:   r.requests.Load(),
		Retries:    r.retries.Load(),
		Throttled:  r.throttled.Load(),
		Applied:    r.applied.Load(),
		Duplicates: r.duplicates.Load(),
		Rejected:   r.rejected.Load(),
		Lost:       rows.Total() - delta.Total(),
		StatsDelta: delta,
	}
	if secs := dur.Seconds(); secs > 0 {
		rep.RowsPerSec = float64(rows.Total()) / secs
		rep.UploadsPerSec = float64(rep.Uploads) / secs
	}
	r.mu.Lock()
	lats := r.latencies
	rep.SlowRows = r.slow
	rep.ThrottledTraces = r.throttledTraces
	r.mu.Unlock()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) time.Duration {
			i := int(p * float64(len(lats)-1))
			return lats[i]
		}
		rep.P50, rep.P90, rep.P99 = q(0.50), q(0.90), q(0.99)
	}
	return rep
}
