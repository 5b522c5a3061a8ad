// bench-report turns `go test -bench` text output (read from stdin)
// into the repo's benchmark-trajectory JSON (BENCH_<pr>.json). Each
// benchmark line becomes a record of its iteration count and every
// reported metric (ns/op, B/op, rows/s, ...); derived ratios the
// acceptance gates care about are computed when their inputs are
// present.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./... | bench-report -pr 5 -out BENCH_5.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches e.g.
//
//	BenchmarkStoreAppend/mode=sharded/goroutines=8-4   431890   896.5 ns/op   1115470 uploads/s   210 B/op   1 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// Benchmarks that log during the run split across lines: the name is
// printed first, the results arrive later on an indented line. benchName
// and benchCont pick up the pieces.
var (
	benchName = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\b`)
	benchCont = regexp.MustCompile(`^\s+(\d+)\s+(\d.*ns/op.*)$`)
)

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type report struct {
	PR         int                `json:"pr"`
	Go         string             `json:"go"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Benchmarks []benchmark        `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
	// Notes spell out how num_cpu shapes the derived ratios, so a
	// reader of the JSON alone cannot misread a 1-CPU run as a
	// parallelism regression.
	Notes []string `json:"notes,omitempty"`
}

func main() {
	pr := flag.Int("pr", 5, "PR number for the trajectory file")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	rep := report{
		PR:         *pr,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Derived:    map[string]float64{},
	}

	record := func(name, iterations, metrics string) {
		iters, err := strconv.ParseInt(iterations, 10, 64)
		if err != nil {
			return
		}
		b := benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		// The metrics field alternates "<value> <unit>" pairs.
		fields := strings.Fields(metrics)
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}

	pending := "" // name seen without results yet (logs split the line)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so the run stays readable
		if m := benchLine.FindStringSubmatch(line); m != nil {
			record(m[1], m[2], m[3])
			pending = ""
			continue
		}
		if m := benchName.FindStringSubmatch(line); m != nil {
			pending = m[1]
			continue
		}
		if pending != "" {
			if m := benchCont.FindStringSubmatch(line); m != nil {
				record(pending, m[1], m[2])
				pending = ""
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "bench-report: read:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "bench-report: no benchmark lines on stdin")
		os.Exit(1)
	}

	derive(&rep)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-report:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench-report:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench-report: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}

// parallelismCaveats declares, per derived-metric prefix, why the
// metric is meaningless (or misleading) on a single-CPU runner. Every
// derived metric recorded through recordDerived with parallel=true must
// have an entry here; the caveat notes are then generated automatically
// for whichever of those metrics are present, instead of being
// hand-written each PR.
var parallelismCaveats = map[string]string{
	"sharded_append_speedup_":       "lock striping has no parallelism to harvest on this runner; ~1x here is expected and >=2x holds on multi-core collectors",
	"cluster_front_route_overhead_": "the front, all nodes, and the client share one CPU, so the ratio overstates the front hop — the cluster's whole point (N cores ingesting in parallel) cannot show here",
	"segment_flush_rows_per_sec":    "the background flush goroutine competes with the writer for the single CPU, so flush throughput reads low relative to multi-core collectors",
}

// derive computes the trajectory ratios. Headline ones: the
// sharded-store speedup over the single-lock seed store (PR 5), the
// binary-wire ingest speedup (PR 7), cluster front-tier overhead
// (PR 8), and the segment-store throughput/latency ratios (PR 9).
func derive(rep *report) {
	nsop := func(name string) float64 {
		for _, b := range rep.Benchmarks {
			if b.Name == name {
				return b.Metrics["ns/op"]
			}
		}
		return 0
	}
	metric := func(name, key string) float64 {
		for _, b := range rep.Benchmarks {
			if b.Name == name {
				return b.Metrics[key]
			}
		}
		return 0
	}

	// recordDerived registers a ratio; parallel marks metrics whose value
	// depends on having CPUs to run concurrently, which triggers the
	// automatic single-core caveat below.
	var parallelMetrics []string
	recordDerived := func(name string, v float64, parallel bool) {
		rep.Derived[name] = v
		if parallel {
			parallelMetrics = append(parallelMetrics, name)
		}
	}

	for _, g := range []int{1, 8} {
		single := nsop(fmt.Sprintf("BenchmarkStoreAppend/mode=single-lock/goroutines=%d", g))
		sharded := nsop(fmt.Sprintf("BenchmarkStoreAppend/mode=sharded/goroutines=%d", g))
		if single > 0 && sharded > 0 {
			recordDerived(fmt.Sprintf("sharded_append_speedup_%d_goroutines", g), single/sharded, g > 1)
		}
	}
	// Binary wire format vs JSON on the same batch ingest workload.
	// Targets (PR 7): >= 5x rows/s/core, >= 10x fewer allocs per batch.
	jsonNs := nsop("BenchmarkIngestBatchWire/format=json")
	binNs := nsop("BenchmarkIngestBatchWire/format=binary")
	if jsonNs > 0 && binNs > 0 {
		recordDerived("binary_ingest_speedup", jsonNs/binNs, false)
	}
	jsonAllocs := metric("BenchmarkIngestBatchWire/format=json", "allocs/op")
	binAllocs := metric("BenchmarkIngestBatchWire/format=binary", "allocs/op")
	if jsonAllocs > 0 && binAllocs > 0 {
		recordDerived("binary_ingest_alloc_ratio", jsonAllocs/binAllocs, false)
	}
	// Cluster front tier (PR 8): what the routing hop and write
	// replication cost per batch relative to POSTing the same NPB2
	// bytes straight at one node, plus the failover handoff ceiling.
	direct := nsop("BenchmarkFrontRouteBatch/path=direct")
	for _, r := range []int{1, 2} {
		front := nsop(fmt.Sprintf("BenchmarkFrontRouteBatch/path=front-r%d", r))
		if direct > 0 && front > 0 {
			recordDerived(fmt.Sprintf("cluster_front_route_overhead_r%d", r), front/direct, true)
		}
	}
	if rows := metric("BenchmarkHandoffReplay", "rows/s"); rows > 0 {
		recordDerived("cluster_handoff_rows_per_sec", rows, false)
	}
	// Segment storage engine (PR 9): flush throughput, the cost of
	// scanning sealed segments relative to an in-memory store, and what
	// incremental partial-state folding saves over full recomputation
	// when one new segment seals.
	if rows := metric("BenchmarkSegmentFlush", "rows/s"); rows > 0 {
		recordDerived("segment_flush_rows_per_sec", rows, true)
	}
	memScan := nsop("BenchmarkAnalysisScan/source=memory")
	segScan := nsop("BenchmarkAnalysisScan/source=segments")
	if memScan > 0 && segScan > 0 {
		recordDerived("segment_scan_overhead", segScan/memScan, false)
	}
	fullFig := nsop("BenchmarkFigureRefresh/mode=full")
	incFig := nsop("BenchmarkFigureRefresh/mode=incremental")
	if fullFig > 0 && incFig > 0 {
		recordDerived("incremental_figure_speedup", fullFig/incFig, false)
	}

	if rep.NumCPU == 1 {
		// Single-core runner: attach the caveat to every
		// parallelism-derived metric present, so a reader of the JSON
		// alone cannot misread the numbers as a parallelism regression.
		for _, name := range parallelMetrics {
			why := ""
			for prefix, w := range parallelismCaveats {
				if strings.HasPrefix(name, prefix) {
					why = w
					break
				}
			}
			if why == "" {
				why = "this metric measures parallel speedup, which a single CPU cannot exhibit"
			}
			rep.Notes = append(rep.Notes, fmt.Sprintf("num_cpu=1: %s: %s", name, why))
		}
	} else if _, ok := rep.Derived["cluster_front_route_overhead_r1"]; ok {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("cluster_front_route_overhead_* measured with front + 3 nodes + client sharing %d CPUs; it prices the extra hop and replication, not cluster-wide ingest capacity (which scales with nodes x cores)", rep.NumCPU))
	}
	sort.Strings(rep.Notes)
}
