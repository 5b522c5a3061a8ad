package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"natpeek/internal/cluster"
	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/figures"
	"natpeek/internal/heartbeat"
	"natpeek/internal/segment"
	"natpeek/internal/telemetry"
)

// Workloads. Each run makes cfg.passes passes; a pass builds its inputs
// from the seed (the set-up), replays the study closed-loop (measuring
// for at most cfg.seconds/cfg.passes), times the reads an analyst makes
// once the study is in, and passes the correctness gate. The run
// reports only when every pass passed, pooling the passes' samples.
//
//   - single-durable stresses decode, dedupe, store apply, memtable,
//     segment write, the dashboard fold and the cold read path; it has
//     no cluster front.
//   - cluster3-r2 stresses the front's routing, ring lookup, per-group
//     re-encode and successor journals; it has no segments or dashboard.
//
// A change to one side predicts no change on the workload that bypasses
// it.
type workload func(cfg config, tr *tracer) (*result, error)

var workloads = map[string]workload{
	"single-durable": runSingle,
	"cluster3-r2":    runCluster,
}

// readsPerPass is how many times each pass times each read once the
// study is in (render, cold scan). Every such read starts from a fresh
// garbage collection, so samples do not differ by where the collector's
// cycle happened to be.
const readsPerPass = 2

// samples pools the passes of one run. Two replays a set-up apart give
// every metric two windows, so a burst of load from outside the process
// that hits one pass moves the run's figures by half as much.
type samples struct {
	setups     []float64 // s
	rows       int       // acknowledged inside the measured windows
	secs       float64   // length of the measured windows
	sealedRows int
	sealedSecs float64
	lat        []float64 // ms, every cycle started inside a window
	alloc      uint64    // bytes allocated inside the windows
	retained   []float64 // MB, one per pass
	renders    []float64 // ms
	scans      []float64 // s
	attempted  int
	failed     int
}

func (s *samples) result() *result {
	return &result{attempted: s.attempted, failed: s.failed, metrics: map[string]float64{
		"setup_s":              median(s.setups),
		"ingest_rows_per_s":    float64(s.rows) / s.secs,
		"sealed_rows_per_s":    float64(s.sealedRows) / s.sealedSecs,
		"cycle_p50_ms":         quantile(s.lat, 0.50),
		"cycle_p99_ms":         quantile(s.lat, 0.99),
		"alloc_bytes_per_row":  float64(s.alloc) / float64(s.rows),
		"retained_heap_mb":     median(s.retained),
		"figure_render_p50_ms": median(s.renders),
		"cold_scan_s":          median(s.scans),
	}}
}

// timeSetup runs one set-up and records its length.
func timeSetup[T any](s *samples, setup func() (T, error)) (T, error) {
	start := time.Now()
	env, err := setup()
	if err == nil {
		s.setups = append(s.setups, time.Since(start).Seconds())
	}
	return env, err
}

// phase is the measured window's process bookkeeping.
type phase struct {
	t0    time.Time
	heap0 uint64
	proc0 procSample
	fail0 int

	once  sync.Once
	timer *time.Timer
	end   time.Time
	procE procSample
}

func beginPhase(seconds time.Duration) *phase {
	p := &phase{heap0: heapLive(), fail0: uploadFailures()}
	p.proc0 = sampleProc()
	p.t0 = time.Now()
	p.timer = time.AfterFunc(seconds, func() { p.close(time.Now()) })
	return p
}

// close ends the window at t (the first call wins).
func (p *phase) close(t time.Time) {
	p.once.Do(func() {
		p.timer.Stop()
		p.end = t
		p.procE = sampleProc()
	})
}

// uploadFailures counts delivery attempts the spools saw fail or get
// refused (a 429 included), plus uploads dropped on overflow or
// dead-lettered, across this process.
func uploadFailures() int {
	reg := telemetry.Default
	n := int(reg.Counter("natpeek_spool_retries_total", "").Value())
	dropped := reg.CounterVec("natpeek_spool_dropped_total", "", "endpoint")
	bad := reg.CounterVec("natpeek_spool_malformed_total", "", "endpoint")
	for _, ep := range collector.Endpoints() {
		n += int(dropped.With(ep).Value() + bad.With(ep).Value())
	}
	return n
}

// window summarises the cycles of a measured phase: rows acknowledged by
// cycles that ended inside it, and the latency of every cycle that
// started inside it.
func window(recs []cycleRec, t0, end time.Time) (rows int, lat []float64) {
	for _, r := range recs {
		if !r.end.After(end) {
			rows += r.rows
		}
		if !r.start.Before(t0) && r.start.Before(end) {
			lat = append(lat, ms(r.end.Sub(r.start)))
		}
	}
	return rows, lat
}

// add pools the pass's measured window into s.
func (p *phase) add(s *samples, recs []cycleRec) (rows int) {
	rows, lat := window(recs, p.t0, p.end)
	secs := p.end.Sub(p.t0).Seconds()
	s.rows += rows
	s.secs += secs
	s.lat = append(s.lat, lat...)
	s.alloc += p.procE.totalAlloc - p.proc0.totalAlloc
	fmt.Fprintf(os.Stderr, "pass %d measured %.2fs: %d rows acknowledged, %d cycle samples, cycle p50 %.1fms; cpu %.0f%% of %d, %d GCs\n",
		len(s.setups), secs, rows, len(lat), quantile(lat, 0.5),
		100*(p.procE.cpu-p.proc0.cpu).Seconds()/secs/float64(runtime.NumCPU()),
		runtime.NumCPU(), p.procE.numGC-p.proc0.numGC)
	return rows
}

// finish records the pass's durability point and its failed deliveries.
func (p *phase) finish(s *samples, st *study, durable time.Duration) {
	s.sealedRows += st.totalRows()
	s.sealedSecs += durable.Seconds()
	s.retained = append(s.retained, retainedMB(p.heap0))
	s.attempted += st.payloads
	s.failed += uploadFailures() - p.fail0
}

func retainedMB(heap0 uint64) float64 {
	return (float64(heapLive()) - float64(heap0)) / (1 << 20)
}

// coldScan is the bismark-analyze -segments path: open the directory,
// merge every segment, close, regenerate every exhibit. It returns the
// merged store for the gate and the path's duration.
func coldScan(dir string, tr *tracer) (*dataset.Store, time.Duration, error) {
	start := time.Now()
	seg, err := segment.Open(segment.Options{Dir: dir, NoCompaction: true})
	if err != nil {
		return nil, 0, fmt.Errorf("cold scan: %w", err)
	}
	opened := time.Now()
	st := seg.Merge()
	merged := time.Now()
	if err := seg.Close(); err != nil {
		return nil, 0, fmt.Errorf("cold scan: %w", err)
	}
	allStart := time.Now()
	figures.All(st, figures.DefaultWindows())
	end := time.Now()
	tr.coldScan(opened.Sub(start), merged.Sub(opened), end.Sub(allStart))
	return st, end.Sub(start), nil
}

func segmentBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir) // an unreadable directory reads as empty; the gate has already passed
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}

// ---- single-durable ----

type singleEnv struct {
	st    *study
	dir   string
	store *segment.Store
	dash  *figures.Dashboard
	srv   *collector.Server
	fl    *fleet
}

func (e *singleEnv) close() {
	if e.fl != nil {
		e.fl.close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.store != nil {
		e.store.Close()
	}
	os.RemoveAll(e.dir)
}

func setupSingle(cfg config, tr *tracer, pass int) (*singleEnv, error) {
	e := &singleEnv{dir: filepath.Join(cfg.dataDir, fmt.Sprintf("single-%d", pass))}
	var err error
	if e.st, err = buildStudy(cfg.seed); err != nil {
		return nil, err
	}
	if e.store, err = segment.Open(segment.Options{Dir: e.dir}); err != nil {
		return nil, err
	}
	dashStart := time.Now()
	if e.dash, err = figures.NewDashboard(e.store, figures.DefaultWindows()); err != nil {
		e.close()
		return nil, err
	}
	tr.dashboardOpen(time.Since(dashStart))
	if e.srv, err = collector.NewServer("127.0.0.1:0", "127.0.0.1:0", tr.wrapStore(e.store)); err != nil {
		e.close()
		return nil, err
	}
	if e.fl, err = startFleet(e.st.routers, e.srv.UDPAddr(), e.srv.HTTPAddr(), tr.wrapRT); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func runSingle(cfg config, tr *tracer) (*result, error) {
	var s samples
	for pass := 0; pass < cfg.passes; pass++ {
		env, err := timeSetup(&s, func() (*singleEnv, error) { return setupSingle(cfg, tr, pass) })
		if err != nil {
			return nil, err
		}
		err = singlePass(cfg, tr, env, &s)
		env.close()
		if err != nil {
			return nil, err
		}
	}
	return s.result(), nil
}

func singlePass(cfg config, tr *tracer, env *singleEnv, s *samples) error {
	st := env.st
	if err := tr.watchSeals(env.store); err != nil {
		return err
	}
	tr.heartbeats(env.store.HeartbeatLog(), st.routers)
	logStudy(st)

	// The dashboard renders at a fixed interval of replay progress —
	// after every 1/renderMarks of the study's rows — as an operator's
	// open /figures page would; pacing by rows acknowledged rather than
	// by clock makes every run render over the same amounts of data.
	// These renders are load; figure_render_p50_ms is taken once the
	// study is sealed, where the latency does not depend on how the CPUs
	// were shared.
	var renders []float64
	stopRender := make(chan struct{})
	renderDone := make(chan struct{})
	go func() {
		defer close(renderDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		step := int64(st.totalRows() / renderMarks)
		next := step
		for {
			select {
			case <-stopRender:
				return
			case <-tick.C:
				if env.fl.rows.Load() < next {
					continue
				}
				next += step
				start := time.Now()
				env.dash.Render()
				renders = append(renders, ms(time.Since(start)))
			}
		}
	}()

	p := beginPhase(cfg.seconds / time.Duration(cfg.passes))
	tr.begin(p.t0)
	recs, err := env.fl.replay()
	p.close(time.Now())
	if err == nil {
		if ferr := env.store.Flush(); ferr != nil {
			err = fmt.Errorf("final flush: %w", ferr)
		}
	}
	sealed := time.Since(p.t0)
	close(stopRender)
	<-renderDone
	if err != nil {
		return err
	}
	tr.end()
	rows := p.add(s, recs)
	p.finish(s, st, sealed)
	tr.window(p, rows, recs)
	tr.dashboardStats(env.dash.Stats())
	var final []float64
	var dash []*figures.Report
	for i := 0; i < readsPerPass; i++ {
		runtime.GC()
		start := time.Now()
		dash = env.dash.Render()
		final = append(final, ms(time.Since(start)))
	}
	s.renders = append(s.renders, final...)
	fmt.Fprintf(os.Stderr, "dashboard: %d renders during ingest, p50 %.1fms; after: %.1f ms\n",
		len(renders), median(renders), final)

	// Correctness gate.
	if err := env.fl.check(); err != nil {
		return err
	}
	if got := env.store.DedupeLen(); got != st.payloads {
		return fmt.Errorf("dedupe index holds %d keys, want one per upload (%d)", got, st.payloads)
	}
	merged := env.store.Merge()
	allStart := time.Now()
	batch := figures.All(merged, figures.DefaultWindows())
	tr.figuresAll(time.Since(allStart))
	if err := checkRows(st, []*dataset.Store{merged}); err != nil {
		return err
	}
	if err := checkFigures(dash, batch); err != nil {
		return err
	}
	tr.segments(env.store.Segments(), segmentBytes(env.dir), st.totalRows())

	// Cold scan of the sealed directory once the server has stopped.
	env.fl.close()
	env.fl = nil
	env.srv.Close()
	env.srv = nil
	if err := env.store.Close(); err != nil {
		return err
	}
	env.store = nil
	for i := 0; i < readsPerPass; i++ {
		runtime.GC()
		cold, d, err := coldScan(env.dir, tr)
		if err != nil {
			return err
		}
		if i == 0 {
			if err := checkRows(st, []*dataset.Store{cold}); err != nil {
				return fmt.Errorf("reopened segments: %w", err)
			}
		}
		s.scans = append(s.scans, d.Seconds())
	}
	return nil
}

// renderMarks is how many progress marks the single-durable dashboard
// renders at (the last lands as the replay ends).
const renderMarks = 4

func logStudy(s *study) {
	fmt.Fprintf(os.Stderr, "study: %d routers, %d cycles, %d uploads, %d rows (%d flows over %d domains), %d heartbeat runs\n",
		len(s.routers), s.cycles, s.payloads, s.totalRows(), s.rows.Flows, s.domains, s.beatRuns)
}

// ---- cluster3-r2 ----

// clusterNodes is the node count of the cluster workload.
const clusterNodes = 3

type clusterEnv struct {
	st    *study
	nodes []*cluster.Node
	front *cluster.Front
	fl    *fleet
}

func (e *clusterEnv) close() {
	if e.fl != nil {
		e.fl.close()
	}
	if e.front != nil {
		e.front.Close()
	}
	for _, n := range e.nodes {
		n.Close()
	}
}

// startCluster starts n in-memory nodes and a front with replication 2,
// all on the program's default gossip timing, and waits until the front
// sees every node alive.
func startCluster(n int, id string, wrap func(dataset.IngestStore) dataset.IngestStore) ([]*cluster.Node, *cluster.Front, error) {
	var nodes []*cluster.Node
	var peers []string
	fail := func(err error) ([]*cluster.Node, *cluster.Front, error) {
		for _, nd := range nodes {
			nd.Close()
		}
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		nd, err := cluster.NewNode(cluster.NodeConfig{
			ID:      fmt.Sprintf("%s-node-%d", id, i),
			UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
			Peers: append([]string(nil), peers...),
			Store: wrap(dataset.NewSharded(0)),
		})
		if err != nil {
			return fail(fmt.Errorf("cluster node %d: %w", i, err))
		}
		nodes = append(nodes, nd)
		peers = append(peers, nd.CtrlAddr())
	}
	front, err := cluster.NewFront(cluster.FrontConfig{
		ID:      id + "-front",
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Peers: peers, Replication: 2,
	})
	if err != nil {
		return fail(fmt.Errorf("cluster front: %w", err))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		alive := 0
		for _, mv := range front.View() {
			if mv.Role == cluster.RoleNode && mv.State == cluster.StateAlive {
				alive++
			}
		}
		if alive == n {
			return nodes, front, nil
		}
		if time.Now().After(deadline) {
			front.Close()
			return fail(fmt.Errorf("cluster: front sees %d of %d nodes alive", alive, n))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// combine concatenates stores (the cluster's analyst view: every node's
// rows in one store).
func combine(hb *heartbeat.Log, parts []*dataset.Store) *dataset.Store {
	out := &dataset.Store{Heartbeats: hb, RouterCountry: make(map[string]string)}
	for _, st := range parts {
		out.Uptime = append(out.Uptime, st.Uptime...)
		out.Capacity = append(out.Capacity, st.Capacity...)
		out.Counts = append(out.Counts, st.Counts...)
		out.Sightings = append(out.Sightings, st.Sightings...)
		out.WiFi = append(out.WiFi, st.WiFi...)
		out.Flows = append(out.Flows, st.Flows...)
		out.Throughput = append(out.Throughput, st.Throughput...)
		for id, cc := range st.RouterCountry {
			out.RouterCountry[id] = cc
		}
	}
	return out
}

func setupCluster(cfg config, tr *tracer, pass int) (*clusterEnv, error) {
	e := &clusterEnv{}
	var err error
	if e.st, err = buildStudy(cfg.seed); err != nil {
		return nil, err
	}
	if e.nodes, e.front, err = startCluster(clusterNodes, fmt.Sprintf("bench%d", pass), tr.wrapStore); err != nil {
		return nil, err
	}
	if e.fl, err = startFleet(e.st.routers, e.front.UDPAddr(), e.front.HTTPAddr(), tr.wrapRT); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func runCluster(cfg config, tr *tracer) (*result, error) {
	var s samples
	for pass := 0; pass < cfg.passes; pass++ {
		env, err := timeSetup(&s, func() (*clusterEnv, error) { return setupCluster(cfg, tr, pass) })
		if err != nil {
			return nil, err
		}
		err = clusterPass(cfg, tr, env, &s)
		env.close()
		if err != nil {
			return nil, err
		}
	}
	return s.result(), nil
}

func clusterPass(cfg config, tr *tracer, env *clusterEnv, s *samples) error {
	st := env.st
	tr.heartbeats(env.front.Heartbeats(), st.routers)
	logStudy(st)

	p := beginPhase(cfg.seconds / time.Duration(cfg.passes))
	tr.begin(p.t0)
	recs, err := env.fl.replay()
	p.close(time.Now())
	if err != nil {
		return err
	}
	// An in-memory cluster's durability point is the acknowledgement:
	// owner applied, successor journaled.
	acked := time.Since(p.t0)
	tr.end()
	rows := p.add(s, recs)
	p.finish(s, st, acked)
	tr.window(p, rows, recs)
	tr.journals(env.nodes, st.totalRows())

	// Correctness gate, on the analyst's cold path for a cluster: merge
	// every node's store and regenerate every exhibit.
	if err := env.fl.check(); err != nil {
		return err
	}
	keys := 0
	for _, nd := range env.nodes {
		keys += nd.Collector().Sharded().DedupeLen()
	}
	if keys != st.payloads {
		return fmt.Errorf("node dedupe indexes hold %d keys, want one per upload (%d)", keys, st.payloads)
	}
	var parts []*dataset.Store
	var merged *dataset.Store
	for i := 0; i < readsPerPass; i++ {
		runtime.GC()
		start := time.Now()
		parts = make([]*dataset.Store, len(env.nodes))
		for k, nd := range env.nodes {
			parts[k] = nd.Store()
		}
		merged = combine(env.front.Heartbeats(), parts)
		figures.All(merged, figures.DefaultWindows())
		s.scans = append(s.scans, time.Since(start).Seconds())
	}
	if err := checkRows(st, parts); err != nil {
		return err
	}
	for i := 0; i < readsPerPass; i++ {
		runtime.GC()
		start := time.Now()
		figures.All(merged, figures.DefaultWindows())
		d := time.Since(start)
		s.renders = append(s.renders, ms(d))
		tr.figuresAll(d)
	}
	return nil
}
