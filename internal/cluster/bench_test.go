package cluster

import (
	"fmt"
	"testing"
	"time"

	"natpeek/internal/wire"
)

// benchItems builds an NPB2-typed batch: `items` uptime rows spread
// across `routers` routers, with empty idempotency keys so the same
// batch re-applies every iteration (dedupe applies only to keyed
// uploads) and the first-write gate never fires.
func benchItems(routers, items int) []wire.Item {
	out := make([]wire.Item, items)
	for i := range out {
		it := uptimeItem(fmt.Sprintf("bench-rt-%03d", i%routers), i)
		it.Key = ""
		out[i] = it
	}
	return out
}

// startBenchCluster is startTestCluster for benchmarks: n nodes plus a
// front on loopback, membership converged before the timer starts.
func startBenchCluster(b *testing.B, n, replication int) (*Front, []*Node) {
	b.Helper()
	var nodes []*Node
	var peers []string
	for i := 0; i < n; i++ {
		nd, err := NewNode(NodeConfig{
			ID:      fmt.Sprintf("bench-node-%d", i),
			UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
			Peers: append([]string(nil), peers...), Gossip: fastGossip,
		})
		if err != nil {
			b.Fatalf("node %d: %v", i, err)
		}
		nodes = append(nodes, nd)
		peers = append(peers, nd.CtrlAddr())
	}
	front, err := NewFront(FrontConfig{
		ID:      "bench-front",
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Peers: peers, Replication: replication, Gossip: fastGossip,
	})
	if err != nil {
		b.Fatalf("front: %v", err)
	}
	b.Cleanup(func() {
		front.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := 0
		for _, mv := range front.View() {
			if mv.Role == RoleNode && mv.State == StateAlive {
				alive++
			}
		}
		if alive == n {
			return front, nodes
		}
		if time.Now().After(deadline) {
			b.Fatalf("membership did not converge to %d nodes", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkRingLookup measures the per-item placement cost the front
// pays while grouping a batch: one consistent-hash lookup returning the
// owner plus successor. This sits on the routing hot path for every
// row of every upload.
func BenchmarkRingLookup(b *testing.B) {
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%d", i)
	}
	ring := NewRing(ids, DefaultVnodes)
	routers := make([]string, 1024)
	for i := range routers {
		routers[i] = fmt.Sprintf("rt-%05d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ring.Lookup(routers[i%len(routers)], 2); len(got) != 2 {
			b.Fatalf("lookup returned %d nodes", len(got))
		}
	}
}

// BenchmarkFrontRouteBatch prices the front tier against a bare
// collector node on the same 64-row batch over real loopback HTTP.
// path=direct POSTs NPB2 straight at a standalone node's data plane —
// the single-node baseline. path=front-r1 adds the front hop: decode,
// per-router placement, per-group NPB2 re-encode, and forwards to a
// 3-node cluster. path=front-r2 adds write replication: every group
// also lands a journal frame on its successor before the ack.
// BENCH_*.json derives cluster_front_route_overhead_r{1,2} from the
// trio; rows/s is the per-front ingest ceiling at each setting.
func BenchmarkFrontRouteBatch(b *testing.B) {
	const routers, items = 16, 64
	batch := benchItems(routers, items)

	run := func(b *testing.B, baseURL string) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, status, err := tryPostBatch(baseURL, batch)
			if err != nil || status != 200 {
				b.Fatalf("post: status %d err %v", status, err)
			}
			if res.Applied != items {
				b.Fatalf("applied %d of %d", res.Applied, items)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)*items/b.Elapsed().Seconds(), "rows/s")
	}

	b.Run("path=direct", func(b *testing.B) {
		nd, err := NewNode(NodeConfig{ID: "bench-solo",
			UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
			Gossip: fastGossip})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { nd.Close() })
		run(b, "http://"+nd.DataAddr())
	})
	for _, r := range []int{1, 2} {
		b.Run(fmt.Sprintf("path=front-r%d", r), func(b *testing.B) {
			front, _ := startBenchCluster(b, 3, r)
			run(b, "http://"+front.HTTPAddr())
		})
	}
}

// BenchmarkHandoffReplay measures failover handoff throughput: a
// journaled NPB2 frame replayed into the successor's own data plane —
// the work a node does per frame while inheriting a dead owner's rows.
// The frame is unkeyed so every iteration pays the full apply cost
// rather than the dedupe short-circuit a second replay of the same
// frame would hit.
func BenchmarkHandoffReplay(b *testing.B) {
	const routers, items = 16, 64
	nd, err := NewNode(NodeConfig{ID: "bench-heir",
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Gossip: fastGossip})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { nd.Close() })
	e := &journalEntry{
		owner: "bench-dead-owner",
		succs: []string{nd.ID()},
		items: items,
		batch: wire.AppendBatch(nil, benchItems(routers, items)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nd.replay(e)
		if err != nil {
			b.Fatal(err)
		}
		if res.applied != items {
			b.Fatalf("replay applied %d of %d", res.applied, items)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*items/b.Elapsed().Seconds(), "rows/s")
}
