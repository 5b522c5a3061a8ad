// bismark-load drives a collection server with a synthetic router
// fleet: N routers ramp in, register, and upload world-shaped
// measurement rows through the real /v1/* and /v1/batch endpoints over
// keep-alive connections. Delivery is at-least-once with idempotency
// keys (429/5xx retried with backoff), and the run ends with strict
// accounting: generated rows vs the server's /v1/stats delta. A healthy
// run reports zero lost rows.
//
// Usage:
//
//	bismark-server -udp 127.0.0.1:8077 -http 127.0.0.1:8080 &
//	bismark-load -server http://127.0.0.1:8080 -routers 2000 -ramp 10s -cycles 5
//
// The process exits non-zero if any rows were lost or the run aborted.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"natpeek/internal/loadgen"
	"natpeek/internal/telemetry"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "collector upload API base URL")
	routers := flag.Int("routers", 200, "synthetic fleet size")
	ramp := flag.Duration("ramp", 5*time.Second, "window over which router start times are spread")
	cycles := flag.Int("cycles", 3, "reporting cycles per router")
	interval := flag.Duration("interval", 0, "pause between a router's cycles (0 = back-to-back)")
	duty := flag.Float64("duty", 1, "probability a cycle reports (models powered-off homes)")
	payloads := flag.Int("payloads", 4, "uploads per active cycle")
	batch := flag.Int("batch", 32, "uploads per /v1/batch POST")
	direct := flag.Float64("direct", 0.1, "fraction of uploads POSTed individually with Idempotency-Key")
	workers := flag.Int("workers", 8, "HTTP delivery concurrency")
	seed := flag.Uint64("seed", 1, "deterministic row-generation seed")
	wireFmt := flag.String("wire", "binary", "batch encoding: binary (NPB2) or json")
	gzipOn := flag.Bool("gzip", false, "gzip-compress batch request bodies")
	jsonOut := flag.String("json", "", "also write the report as JSON to this file (- for stdout)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and pprof on this address during the run")
	flag.Parse()

	log := telemetry.SetupLogger("bismark-load")
	if *debugAddr != "" {
		dbg, err := telemetry.StartDebug(*debugAddr, telemetry.Default)
		if err != nil {
			log.Error("debug server failed", "err", err)
			os.Exit(1)
		}
		defer dbg.Close()
		log.Info("debug server", "metrics", "http://"+dbg.Addr()+"/metrics")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := loadgen.Config{
		BaseURL:          *server,
		Routers:          *routers,
		Ramp:             *ramp,
		Cycles:           *cycles,
		Interval:         *interval,
		Duty:             *duty,
		PayloadsPerCycle: *payloads,
		BatchSize:        *batch,
		DirectFraction:   *direct,
		Workers:          *workers,
		Seed:             *seed,
		Wire:             *wireFmt,
		Gzip:             *gzipOn,
	}
	log.Info("starting load run", "server", *server, "routers", *routers,
		"cycles", *cycles, "ramp", *ramp, "workers", *workers, "wire", *wireFmt)

	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		log.Error("load run failed", "err", err)
		os.Exit(1)
	}
	fmt.Print(rep.String())
	if *jsonOut != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		b = append(b, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			log.Error("write report", "err", err)
			os.Exit(1)
		}
	}
	if rep.Lost != 0 {
		log.Error("row loss detected", "lost", rep.Lost,
			"generated", rep.Generated.Total(), "ingested", rep.StatsDelta.Total())
		os.Exit(1)
	}
	log.Info("zero lost rows", "rows", rep.Generated.Total(),
		"rows_per_sec", int(rep.RowsPerSec), "p99", rep.P99)
}
