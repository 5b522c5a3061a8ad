// bismark-server runs the central collection server: a UDP sink for
// router heartbeats and an HTTP API for measurement uploads. On SIGINT it
// persists everything it collected as CSV data sets.
//
// Observability: the HTTP listener also serves GET /metrics (Prometheus
// text format), GET /healthz (uptime, heartbeat-port status, row counts),
// and the pprof handlers under /debug/pprof/. Logging is structured
// (slog); tune with NATPEEK_LOG_LEVEL / NATPEEK_LOG_FORMAT.
//
// Cluster mode: -cluster runs this process as one node of a collector
// cluster — the same data plane, plus a control-plane listener for
// membership gossip, write replication journals, and failover replay.
// Point one or more bismark-front processes at the node's -ctrl address
// and clients at the fronts.
//
// Scale-out: add -join to a new cluster node and it starts OFF the
// routing ring, streams its share of ownership from the existing
// members, and only then commits a ring epoch that includes it — fronts
// fence the moving shards during the cutover, so nothing is lost or
// duplicated. Scale-in is driven from a front:
// POST /v1/cluster/drain?node=<id>.
//
// Usage:
//
//	bismark-server -udp 127.0.0.1:8077 -http 127.0.0.1:8080 -out ./live-data
//	bismark-server -cluster -node-id node-0 -ctrl 127.0.0.1:9090 -peers 127.0.0.1:9091,127.0.0.1:9092
//	bismark-server -cluster -join -node-id node-3 -ctrl 127.0.0.1:9093 -peers 127.0.0.1:9090
package main

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"natpeek/internal/cluster"
	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/figures"
	"natpeek/internal/segment"
	"natpeek/internal/telemetry"
)

// mountFigures attaches the incremental figures dashboard to the
// collector's HTTP mux.
func mountFigures(seg *segment.Store, srv *collector.Server) error {
	d, err := figures.NewDashboard(seg, figures.DefaultWindows())
	if err != nil {
		return err
	}
	d.Register(srv.Mux())
	return nil
}

func main() {
	udp := flag.String("udp", "127.0.0.1:8077", "UDP address for heartbeats")
	httpAddr := flag.String("http", "127.0.0.1:8080", "HTTP address for measurement uploads, /metrics, /healthz, and pprof")
	out := flag.String("out", "live-data", "directory to persist data sets on shutdown")
	statsEvery := flag.Duration("stats-every", 30*time.Second, "how often to log collection progress")
	failRate := flag.Float64("fail-rate", 0, "fault injection: fraction of uploads to fail (half rejected, half applied with the ack dropped) to exercise gateway retries and server dedupe")
	failSeed := flag.Uint64("fail-seed", 1, "fault injection RNG seed")
	traceSample := flag.Float64("trace-sample", 0.05, "tail-sampling keep probability for healthy traces (error, throttled, and slow traces are always kept)")
	traceSlow := flag.Duration("trace-slow", 500*time.Millisecond, "traces at least this slow are always kept")
	noBinary := flag.Bool("no-binary", false, "stop advertising the NPB2 binary batch encoding (clients fall back to JSON; binary uploads are still accepted)")
	clusterMode := flag.Bool("cluster", false, "run as a cluster node: serve the control plane on -ctrl, gossip with -peers, journal replicated writes, and replay them on peer failure")
	nodeID := flag.String("node-id", "node-0", "cluster mode: this node's stable hash-ring identity")
	ctrlAddr := flag.String("ctrl", "127.0.0.1:9090", "cluster mode: control-plane HTTP address (gossip, replicate, manifest)")
	peers := flag.String("peers", "", "cluster mode: comma-separated control-plane addresses of existing members (empty for the first node)")
	joinRing := flag.Bool("join", false, "cluster mode: scale-out — start off the routing ring, pull this node's share of ownership from the existing members, then commit a ring epoch that includes it (requires -peers)")
	segDir := flag.String("segments", "", "durable columnar segment directory: rows spill from memory to immutable NPS1 segments as they arrive (crash-safe, exactly-once across restarts) and the HTTP listener gains a continuously-updating GET /figures dashboard")
	segFlushAge := flag.Duration("segment-flush-age", time.Minute, "seal a non-empty memtable this long after its first row even below the row threshold, so quiet deployments still reach disk (0 disables)")
	flag.Parse()

	log := telemetry.SetupLogger("bismark-server")

	var store dataset.IngestStore = dataset.NewSharded(0)
	var segStore *segment.Store
	if *segDir != "" {
		var err error
		segStore, err = segment.Open(segment.Options{Dir: *segDir, FlushAge: *segFlushAge})
		if err != nil {
			log.Error("segment store open failed", "err", err)
			os.Exit(1)
		}
		store = segStore
		log.Info("segment storage enabled", "dir", *segDir,
			"segments", len(segStore.Segments()))
	}

	if *clusterMode {
		var seedPeers []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				seedPeers = append(seedPeers, p)
			}
		}
		if *joinRing && len(seedPeers) == 0 {
			log.Error("-join needs -peers: a joiner pulls ownership from existing members")
			os.Exit(1)
		}
		node, err := cluster.NewNode(cluster.NodeConfig{
			ID:      *nodeID,
			UDPAddr: *udp, HTTPAddr: *httpAddr, CtrlAddr: *ctrlAddr,
			Peers: seedPeers, Store: store,
			Joining: *joinRing,
		})
		if err != nil {
			log.Error("cluster node start failed", "err", err)
			os.Exit(1)
		}
		if *joinRing {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			if err := node.JoinRing(ctx); err != nil {
				cancel()
				log.Error("ring join failed", "err", err)
				node.Close()
				os.Exit(1)
			}
			cancel()
			log.Info("joined the routing ring", "node", *nodeID)
		}
		node.Collector().SetTraceSampling(*traceSample, *traceSlow)
		if segStore != nil {
			if err := mountFigures(segStore, node.Collector()); err != nil {
				log.Error("figures dashboard failed", "err", err)
				os.Exit(1)
			}
			log.Info("figures dashboard", "url", "http://"+node.DataAddr()+"/figures")
		}
		log.Info("cluster node listening",
			"node", *nodeID,
			"heartbeats", "udp://"+node.UDPAddr(),
			"uploads", "http://"+node.DataAddr(),
			"control", "http://"+node.CtrlAddr(),
			"members", "http://"+node.CtrlAddr()+"/cluster/members")

		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		<-stop
		log.Info("shutting down", "out", *out)
		if err := node.Close(); err != nil {
			log.Warn("close", "err", err)
		}
		if segStore != nil {
			if err := segStore.Close(); err != nil {
				log.Warn("segment store close", "err", err)
			}
		}
		if err := store.Save(*out); err != nil {
			log.Error("save failed", "err", err)
			os.Exit(1)
		}
		return
	}

	srv, err := collector.NewServer(*udp, *httpAddr, store)
	if err != nil {
		log.Error("start failed", "err", err)
		os.Exit(1)
	}
	if *failRate > 0 {
		srv.SetFaultInjection(*failRate, *failSeed)
		log.Warn("fault injection enabled", "rate", *failRate, "seed", *failSeed)
	}
	srv.SetTraceSampling(*traceSample, *traceSlow)
	if segStore != nil {
		if err := mountFigures(segStore, srv); err != nil {
			log.Error("figures dashboard failed", "err", err)
			os.Exit(1)
		}
		log.Info("figures dashboard", "url", "http://"+srv.HTTPAddr()+"/figures")
	}
	if *noBinary {
		srv.SetAdvertiseBinary(false)
		log.Info("binary batch advertisement disabled")
	}
	log.Info("listening",
		"heartbeats", "udp://"+srv.UDPAddr(),
		"uploads", "http://"+srv.HTTPAddr(),
		"metrics", "http://"+srv.HTTPAddr()+"/metrics",
		"healthz", "http://"+srv.HTTPAddr()+"/healthz",
		"traces", "http://"+srv.HTTPAddr()+"/debug/traces",
		"pipeline", "http://"+srv.HTTPAddr()+"/pipeline",
		"pprof", "http://"+srv.HTTPAddr()+"/debug/pprof/")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*statsEvery)
	defer ticker.Stop()

	for {
		select {
		case <-ticker.C:
			beats := 0
			hb := store.HeartbeatLog()
			for _, id := range hb.Routers() {
				beats += hb.Count(id)
			}
			rc := store.RowCounts()
			log.Info("collection progress",
				"routers", rc.Routers, "heartbeats", beats,
				"uptime", rc.Uptime, "capacity", rc.Capacity,
				"counts", rc.Counts, "wifi", rc.WiFi,
				"flows", rc.Flows)
		case <-stop:
			log.Info("shutting down", "out", *out)
			if err := srv.Close(); err != nil {
				log.Warn("close", "err", err)
			}
			if segStore != nil {
				if err := segStore.Close(); err != nil {
					log.Warn("segment store close", "err", err)
				}
			}
			if err := store.Save(*out); err != nil {
				log.Error("save failed", "err", err)
				os.Exit(1)
			}
			return
		}
	}
}
