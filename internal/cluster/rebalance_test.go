package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"natpeek/internal/loadgen"
	"natpeek/internal/segment"
	"natpeek/internal/wire"
)

// epochView mirrors the GET /v1/cluster/epoch JSON.
type epochView struct {
	Current *epochJSON `json:"current"`
	Pending *epochJSON `json:"pending"`
}

func fetchEpoch(t *testing.T, baseURL string) epochView {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/cluster/epoch")
	if err != nil {
		t.Fatalf("fetch epoch: %v", err)
	}
	defer resp.Body.Close()
	var ev epochView
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatalf("decode epoch: %v", err)
	}
	return ev
}

// committedWithout reports whether the view shows a committed epoch
// that excludes id, with no pending cutover in flight.
func (ev epochView) committedWithout(id string) bool {
	if ev.Current == nil || !ev.Current.Committed || ev.Pending != nil {
		return false
	}
	for _, n := range ev.Current.Nodes {
		if n == id {
			return false
		}
	}
	return true
}

func (ev epochView) committedWith(id string) bool {
	if ev.Current == nil || !ev.Current.Committed || ev.Pending != nil {
		return false
	}
	for _, n := range ev.Current.Nodes {
		if n == id {
			return true
		}
	}
	return false
}

// seedUptime posts per-router uptime rows through the front as keyed
// binary batches and returns the items for later retry probes.
func seedUptime(t *testing.T, tc *testCluster, routers, perRouter int) []wire.Item {
	t.Helper()
	var items []wire.Item
	for r := 0; r < routers; r++ {
		for s := 0; s < perRouter; s++ {
			items = append(items, uptimeItem(fmt.Sprintf("reb-%04d", r), s))
		}
	}
	res := postBatch(t, frontURL(tc), items)
	if res.Applied != len(items) || res.Duplicates != 0 || res.Rejected != 0 {
		t.Fatalf("seed batch: %+v, want %d applied", res, len(items))
	}
	return items
}

// addJoiningNode starts a node that holds itself out of the legacy ring
// (Joining) until an epoch that includes it commits.
func addJoiningNode(t *testing.T, tc *testCluster, id string) *Node {
	t.Helper()
	var peers []string
	for _, nd := range tc.nodes {
		peers = append(peers, nd.CtrlAddr())
	}
	cfg := tc.nodeConfig(id, peers)
	cfg.Joining = true
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("joiner: %v", err)
	}
	tc.nodes = append(tc.nodes, nd)
	// Close before the cleanups registered earlier (its store's) run.
	t.Cleanup(func() { nd.Close() })
	return nd
}

// TestClusterScaleOutTransfersOwnership is the deterministic scale-out
// contract: a fourth node joins a loaded three-node cluster, JoinRing
// commits a new epoch, and afterwards (a) no row was lost or
// duplicated, (b) the joiner holds exactly the rows the new ring
// assigns it, and (c) a client retry of any moved upload is refused as
// a duplicate at the new owner — the dedupe keys traveled with the
// rows.
func TestClusterScaleOutTransfersOwnership(t *testing.T) {
	tc := startTestCluster(t, 3, 2)
	items := seedUptime(t, tc, 40, 3)

	joiner := addJoiningNode(t, tc, "node-3")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := joiner.JoinRing(ctx); err != nil {
		t.Fatalf("JoinRing: %v", err)
	}

	waitFor(t, 10*time.Second, "front to see the committed epoch", func() bool {
		return fetchEpoch(t, frontURL(tc)).committedWith("node-3")
	})
	ev := fetchEpoch(t, frontURL(tc))

	// Conservation: every seeded row is still in exactly one store.
	if got := totalRows(tc); got != len(items) {
		t.Fatalf("cluster holds %d rows after scale-out, want %d", got, len(items))
	}
	// Placement: the joiner holds exactly its share under the committed
	// epoch's ring — nothing more, nothing left behind at the old
	// owners.
	ring := NewRing(ev.Current.Nodes, DefaultVnodes)
	want := 0
	for _, it := range items {
		if ring.Owner(it.Payload.Router()) == "node-3" {
			want++
		}
	}
	if want == 0 {
		t.Fatal("ring assigns the joiner no seeded routers; widen the seed")
	}
	if got := len(joiner.Store().Uptime); got != want {
		t.Fatalf("joiner holds %d rows, ring assigns it %d", got, want)
	}
	for _, nd := range tc.nodes[:3] {
		for _, row := range nd.Store().Uptime {
			if ring.Owner(row.RouterID) != nd.ID() {
				t.Fatalf("row for %s left behind on %s after scale-out", row.RouterID, nd.ID())
			}
		}
	}

	// Exactly-once across the move: a full retry of the seed flattens
	// to duplicates wherever the rows now live.
	res := postBatch(t, frontURL(tc), items)
	if res.Applied != 0 || res.Duplicates != len(items) {
		t.Fatalf("post-join retry: %+v, want all %d duplicate", res, len(items))
	}
	if got := totalRows(tc); got != len(items) {
		t.Fatalf("cluster holds %d rows after retries, want %d", got, len(items))
	}
}

// TestClusterDrainViaFrontEndpoint walks the operator path end to end:
// POST /v1/cluster/drain?node=X on a front relays the drain to the
// node, the shrunken epoch commits and is visible on the front's epoch
// endpoint, the drained node ends at zero rows, and retries of its
// moved uploads dedupe at the survivors.
func TestClusterDrainViaFrontEndpoint(t *testing.T) {
	tc := startTestCluster(t, 3, 2)
	items := seedUptime(t, tc, 40, 3)
	victim := tc.nodes[1]

	resp, err := http.Post(frontURL(tc)+"/v1/cluster/drain?node="+victim.ID(), "", nil)
	if err != nil {
		t.Fatalf("drain request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain request: status %d, want 202", resp.StatusCode)
	}

	waitFor(t, 30*time.Second, "front to see the shrunken epoch commit", func() bool {
		return fetchEpoch(t, frontURL(tc)).committedWithout(victim.ID())
	})
	waitFor(t, 10*time.Second, "drained node to reach zero rows", func() bool {
		st := victim.Store()
		return len(st.Uptime)+len(st.Capacity)+len(st.Counts)+len(st.Sightings)+
			len(st.WiFi)+len(st.Flows)+len(st.Throughput) == 0
	})
	if got := totalRows(tc); got != len(items) {
		t.Fatalf("cluster holds %d rows after drain, want %d", got, len(items))
	}

	res := postBatch(t, frontURL(tc), items)
	if res.Applied != 0 || res.Duplicates != len(items) {
		t.Fatalf("post-drain retry: %+v, want all %d duplicate", res, len(items))
	}
	if got := totalRows(tc); got != len(items) {
		t.Fatalf("cluster holds %d rows after retries, want %d", got, len(items))
	}
	// The drained node keeps remembering the moved keys too: a retry
	// landing directly on it (a client with a stale node address) must
	// also be refused.
	victimURL := "http://" + victim.DataAddr()
	if res, status, err := tryPostBatch(victimURL, items[:3]); err != nil || status != http.StatusOK {
		t.Fatalf("direct retry at drained node: status %d err %v", status, err)
	} else if res.Applied != 0 || res.Duplicates != 3 {
		t.Fatalf("direct retry at drained node re-applied rows: %+v", res)
	}
}

// TestFrontFencesDuringCutover pins the no-drop guarantee's other half:
// while a pending epoch is gossiped (cutover in flight), writes for a
// router whose owner is about to change are refused with 429 +
// Retry-After — never forwarded, never dropped — on both the batch and
// the direct-endpoint paths, while unaffected routers keep flowing.
func TestFrontFencesDuringCutover(t *testing.T) {
	tc := startTestCluster(t, 3, 2)

	// Inject a pending epoch that removes node-2, exactly what a drain
	// broadcast does before its transfer starts.
	pending := &RingEpoch{Version: 1, Nodes: []string{"node-0", "node-1"}}
	if _, err := postCtrl(http.DefaultClient, tc.front.CtrlAddr(), "/cluster/gossip",
		&Message{Kind: MsgGossip, Gossip: &Gossip{From: "node-0", Next: pending}},
		5*time.Second); err != nil {
		t.Fatalf("inject pending epoch: %v", err)
	}
	waitFor(t, 5*time.Second, "front to gossip the pending epoch", func() bool {
		ev := fetchEpoch(t, frontURL(tc))
		return ev.Pending != nil && ev.Pending.Version == 1
	})

	full := NewRing([]string{"node-0", "node-1", "node-2"}, DefaultVnodes)
	shrunk := NewRing(pending.Nodes, DefaultVnodes)
	fenced, open := "", ""
	for i := 0; fenced == "" || open == ""; i++ {
		r := fmt.Sprintf("fence-%04d", i)
		if full.Owner(r) != shrunk.Owner(r) {
			fenced = r
		} else if open == "" {
			open = r
		}
	}

	// Batch path: the fenced router's item is refused before anything
	// forwards; the open router's identical batch lands.
	_, status, err := tryPostBatch(frontURL(tc), []wire.Item{uptimeItem(fenced, 1)})
	if err == nil || status != http.StatusTooManyRequests {
		t.Fatalf("fenced batch: status %d err %v, want 429", status, err)
	}
	if res, status, err := tryPostBatch(frontURL(tc), []wire.Item{uptimeItem(open, 1)}); err != nil ||
		status != http.StatusOK || res.Applied != 1 {
		t.Fatalf("open-router batch during cutover: status %d res %+v err %v", status, res, err)
	}

	// The 429 must carry Retry-After so spool clients back off politely.
	raw := wire.AppendBatch(nil, []wire.Item{uptimeItem(fenced, 2)})
	resp, err := http.Post(frontURL(tc)+"/v1/batch", wire.ContentTypeBinary, bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("fenced batch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("fenced batch: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Direct-endpoint path fences on the same predicate.
	body := []byte(fmt.Sprintf(`{"router_id":%q,"reported_at":"2013-04-01T12:00:00Z","uptime_s":60}`, fenced))
	req, _ := http.NewRequest(http.MethodPost, frontURL(tc)+"/v1/uptime", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", fenced+":direct:1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("fenced direct post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fenced direct post: status %d, want 429", resp.StatusCode)
	}
}

// TestTwoFrontsConvergeOnEpoch: a drain initiated through one front
// must become visible on every front — fronts learn epochs only via
// gossip, and clients behind either front see the same ring.
func TestTwoFrontsConvergeOnEpoch(t *testing.T) {
	tc := startTestCluster(t, 2, 2)
	seedUptime(t, tc, 12, 2)
	var peers []string
	for _, nd := range tc.nodes {
		peers = append(peers, nd.CtrlAddr())
	}
	second, err := NewFront(FrontConfig{
		ID:      "front-1",
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Peers: peers, Replication: 2, Gossip: fastGossip,
	})
	if err != nil {
		t.Fatalf("second front: %v", err)
	}
	t.Cleanup(func() { second.Close() })

	victim := tc.nodes[1]
	resp, err := http.Post(frontURL(tc)+"/v1/cluster/drain?node="+victim.ID(), "", nil)
	if err != nil {
		t.Fatalf("drain request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain request: status %d", resp.StatusCode)
	}

	secondURL := "http://" + second.HTTPAddr()
	waitFor(t, 30*time.Second, "both fronts to converge on the shrunken epoch", func() bool {
		a, b := fetchEpoch(t, frontURL(tc)), fetchEpoch(t, secondURL)
		return a.committedWithout(victim.ID()) && b.committedWithout(victim.ID()) &&
			a.Current.Version == b.Current.Version
	})
}

// soakStores are the stores the rebalance soaks run on: fresh in-memory
// stores, and durable segment stores that seal every few dozen rows, so
// the move has to rewrite sealed segments in place (ExtractRouters)
// while live ingest keeps landing in the memtable.
var soakStores = []struct {
	name string
	opts []func(*testCluster)
}{
	{"memory", nil},
	{"segments", []func(*testCluster){withSegmentStores(32)}},
}

// hasSealed reports whether nd's store is in memory or already holds a
// sealed segment — the precondition for a durable soak's move.
func hasSealed(nd *Node) bool {
	seg, ok := nd.Collector().Sharded().(*segment.Store)
	return !ok || len(seg.Segments()) > 0
}

// TestChaosSoakScaleOut is the scale-out headline proof: a fourth node
// joins mid-soak, the transfer races live keyed traffic (including 429
// fencing during the cutover window and client retries straddling the
// move), and the cluster must still converge to exactly the generated
// row counts — zero lost, zero duplicated.
func TestChaosSoakScaleOut(t *testing.T) {
	for _, sc := range soakStores {
		t.Run(sc.name, func(t *testing.T) { soakScaleOut(t, sc.opts...) })
	}
}

func soakScaleOut(t *testing.T, opts ...func(*testCluster)) {
	routers, cycles := 48, 10
	if testing.Short() {
		routers, cycles = 16, 6
	}
	tc := startTestCluster(t, 3, 2, opts...)

	cfg := loadgen.Config{
		BaseURL:  frontURL(tc),
		Routers:  routers,
		Cycles:   cycles,
		Interval: 50 * time.Millisecond,
		Ramp:     200 * time.Millisecond,
		Workers:  6,
		Seed:     1,
	}
	type outcome struct {
		rep *loadgen.Report
		err error
	}
	done := make(chan outcome, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	go func() {
		rep, err := loadgen.Run(ctx, cfg)
		done <- outcome{rep, err}
	}()

	// Let traffic establish ownership first, then grow the ring under
	// fire.
	waitFor(t, 15*time.Second, "cluster to own some rows", func() bool {
		return totalRows(tc) > 0 && hasSealed(tc.nodes[0]) && hasSealed(tc.nodes[1]) && hasSealed(tc.nodes[2])
	})
	joiner := addJoiningNode(t, tc, "node-3")
	if err := joiner.JoinRing(ctx); err != nil {
		t.Fatalf("JoinRing under load: %v", err)
	}
	t.Logf("%s joined mid-run", joiner.ID())

	out := <-done
	if out.err != nil {
		t.Fatalf("loadgen run: %v", out.err)
	}
	rep := out.rep
	t.Logf("soak: %d rows generated, %d requests, %d retries, %d throttled, lost=%d",
		rep.Generated.Total(), rep.Requests, rep.Retries, rep.Throttled, rep.Lost)

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && clusterRows(tc) != rep.Generated {
		time.Sleep(20 * time.Millisecond)
	}
	if got := clusterRows(tc); got != rep.Generated {
		t.Fatalf("cluster did not converge after scale-out:\n got %+v\nwant %+v", got, rep.Generated)
	}
	time.Sleep(10 * fastGossip.Interval)
	if got := clusterRows(tc); got != rep.Generated {
		t.Fatalf("cluster rows diverged after settling:\n got %+v\nwant %+v", got, rep.Generated)
	}
	if rep.Lost < 0 {
		t.Fatalf("negative lost rows (%d): duplicated rows in cluster stats", rep.Lost)
	}
	// The epoch must have actually cut over and given the joiner work.
	if !fetchEpoch(t, frontURL(tc)).committedWith("node-3") {
		t.Fatal("epoch with the joiner never committed on the front")
	}
	if got := len(joiner.Store().Uptime) + len(joiner.Store().Flows); got == 0 {
		t.Error("joiner ended the soak owning no rows")
	}
}

// TestChaosSoakDrain is the scale-in headline proof: a loaded node is
// drained to zero mid-soak. Its rows stream to the survivors while the
// generators keep writing (retrying through the fenced window), and
// the totals must converge exactly — nothing lost in transit, nothing
// applied twice even though every moved upload's key changed homes.
func TestChaosSoakDrain(t *testing.T) {
	for _, sc := range soakStores {
		t.Run(sc.name, func(t *testing.T) { soakDrain(t, sc.opts...) })
	}
}

func soakDrain(t *testing.T, opts ...func(*testCluster)) {
	routers, cycles := 48, 10
	if testing.Short() {
		routers, cycles = 16, 6
	}
	tc := startTestCluster(t, 3, 2, opts...)

	cfg := loadgen.Config{
		BaseURL:  frontURL(tc),
		Routers:  routers,
		Cycles:   cycles,
		Interval: 50 * time.Millisecond,
		Ramp:     200 * time.Millisecond,
		Workers:  6,
		Seed:     1,
	}
	type outcome struct {
		rep *loadgen.Report
		err error
	}
	done := make(chan outcome, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	go func() {
		rep, err := loadgen.Run(ctx, cfg)
		done <- outcome{rep, err}
	}()

	victim := tc.nodes[1]
	waitFor(t, 15*time.Second, "victim to own some rows", func() bool {
		st := victim.Store()
		return len(st.Uptime)+len(st.Capacity)+len(st.Counts)+len(st.Sightings)+
			len(st.WiFi)+len(st.Flows)+len(st.Throughput) > 0 && hasSealed(victim)
	})
	if err := victim.Drain(ctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	t.Logf("%s drained mid-run", victim.ID())

	out := <-done
	if out.err != nil {
		t.Fatalf("loadgen run: %v", out.err)
	}
	rep := out.rep
	t.Logf("soak: %d rows generated, %d requests, %d retries, %d throttled, lost=%d",
		rep.Generated.Total(), rep.Requests, rep.Retries, rep.Throttled, rep.Lost)

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && clusterRows(tc) != rep.Generated {
		time.Sleep(20 * time.Millisecond)
	}
	if got := clusterRows(tc); got != rep.Generated {
		t.Fatalf("cluster did not converge after drain:\n got %+v\nwant %+v", got, rep.Generated)
	}
	time.Sleep(10 * fastGossip.Interval)
	if got := clusterRows(tc); got != rep.Generated {
		t.Fatalf("cluster rows diverged after settling:\n got %+v\nwant %+v", got, rep.Generated)
	}
	if rep.Lost < 0 {
		t.Fatalf("negative lost rows (%d): duplicated rows in cluster stats", rep.Lost)
	}
	if !fetchEpoch(t, frontURL(tc)).committedWithout(victim.ID()) {
		t.Fatal("shrunken epoch never committed on the front")
	}
	// The drained node ends empty; the post-commit sweep catches any
	// row that slipped in between the last transfer round and the
	// fence.
	waitFor(t, 10*time.Second, "drained node to reach zero rows", func() bool {
		st := victim.Store()
		return len(st.Uptime)+len(st.Capacity)+len(st.Counts)+len(st.Sightings)+
			len(st.WiFi)+len(st.Flows)+len(st.Throughput) == 0
	})
}
