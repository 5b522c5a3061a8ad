// Command perfbench replays a paper-scale BISmark fleet through the
// production ingest pipeline — gateway client, spool, NPB1 wire, HTTP,
// collector or cluster front, store, segments, figures — and prints the
// benchmark's metrics as one JSON object on the last line of stdout.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload single-durable --seed 1 --seconds 50 --trace 0
//
// Workloads are defined in workloads.go; metric names and units in
// metrics.go; the traced per-layer ledger in ledger.go. A run that fails
// its correctness gate exits 1 without printing metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dataDir  string
	passes   int // set-up + replay passes per run; setup_s is the median set-up
}

type result struct {
	attempted int
	failed    int
	metrics   map[string]float64
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var secs float64
	flag.StringVar(&cfg.workload, "workload", "", "workload name: single-durable or cluster3-r2")
	flag.Uint64Var(&cfg.seed, "seed", 1, "world seed; the same seed replays the same study")
	flag.Float64Var(&secs, "seconds", 50, "longest measured time, split evenly over the passes; a pass ends earlier when its replay does")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&cfg.dataDir, "data", ".bench_build/data", "scratch directory for segment files and spans")
	flag.Parse()
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.trace = trace == 1
	cfg.passes = 2

	// The program's own logging stays on; only warnings reach stderr so
	// the benchmark's summary lines stay readable.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, secs, trace)
		os.Exit(2)
	}
	run := filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(run, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.dataDir = run
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(cfg, w)
	} else {
		res, err = w(cfg, nil)
	}
	os.RemoveAll(run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		os.Exit(1)
	}
	out := output{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for _, m := range metricsFor(cfg.trace) {
		v, ok := res.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: metric %s not measured\n", m.name)
			os.Exit(1)
		}
		out.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	b, _ := json.Marshal(out) // plain structs of numbers and strings always marshal
	fmt.Println(string(b))
}
