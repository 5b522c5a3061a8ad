package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/wire"
)

// Moving rows between nodes. Every row that leaves a node travels one
// way, handoff: the node's dedupe keys and keyed wire.Items are grouped
// by their owner under a given ring, each owner is pushed its keys
// first (MsgTransferKeys) and then sent the items as bounded NPB2
// chunks through its own data plane — admission control, the
// first-write gate, dedupe and telemetry apply unchanged, and a re-sent
// chunk flattens to duplicates. Two callers use it:
//
//   - Failover (node.go replayScan): when a frame's owner lost its
//     store, the first live successor hands the journaled frame's items
//     to their owners under the current ring. The items carry their
//     client keys, so no key set travels with them.
//   - Planned rebalancing (this file): when the ring changes shape on
//     purpose — scale-out (JoinRing) and scale-in (Drain) — a source
//     hands off its FULL owned row set for the moving routers.
//
// Keys reach a node in exactly two ways, both seeded by seedKeys: the
// push a handoff makes, and the pull of the receiving node's first-write
// gate (gateRouter), which every row — client upload, replay or
// transfer — passes before its router's first apply.
//
// The rebalance protocol:
//
//  1. The coordinator proposes a RingEpoch with the new composition and
//     broadcasts it. Every front that learns the pending epoch starts
//     fencing writes whose ownership is about to move (429 +
//     Retry-After, never dropped).
//  2. waitEpochVisible blocks until every live member — fronts
//     included — reports the proposal's version. From here, no write
//     for a moving shard can land anywhere.
//  3. Sources run transfer sessions: atomically extract the moving
//     routers' rows from the store (dedupe keys are retained at the
//     source), re-encode them as items keyed
//     "<router>:xfer:<src>:<session>:<kind>:<i>", and hand them off
//     under the epoch's ring together with the moved routers' client
//     keys, so late client retries dedupe at the new owner even after
//     the source is gone. Items that cannot be delivered are restored
//     into the source's store.
//  4. Sessions repeat until one moves zero rows, then the coordinator
//     commits the epoch and broadcasts again; fronts route by the new
//     ring and stop fencing.
const (
	// transferBatchItems caps items per transfer batch POST.
	transferBatchItems = 256
	// transferRunRows caps rows per slice-carrying transfer item.
	transferRunRows = 128
	// transferKeysPerMsg caps keys per MsgTransferKeys push.
	transferKeysPerMsg = 2048
)

// Transfer-key kind discriminators (the "<kind>" field of an xfer
// idempotency key). Distinct per row set so per-(router,kind) indices
// never collide.
const (
	xfkRegister = iota
	xfkUptime
	xfkCapacity
	xfkCount
	xfkSightings
	xfkWiFi
	xfkFlows
	xfkThroughput
)

// handoffResult is what a handoff did: the rows its posts applied and
// found duplicate, and the keys and items it did not deliver.
type handoffResult struct {
	applied, duplicates int
	keys                []dataset.RouterKey
	items               []wire.Item
}

// handoff moves dedupe keys and keyed items to their owners under ring
// (an empty ring means this node). Owners are served in ID order; for
// each, the keys go first, in MsgTransferKeys pushes of at most
// transferKeysPerMsg, so its dedupe index knows them before any moved
// row lands, then the items, in NPB2 chunks of at most
// transferBatchItems through its data plane. Every post is attempted
// once: the first failure for an owner stops that owner, and its
// undelivered keys and items come back in the result, with the first
// error, for the caller to retry or restore.
func (n *Node) handoff(ctx context.Context, ring *Ring, keys []dataset.RouterKey, items []wire.Item) (handoffResult, error) {
	type group struct {
		keys  []dataset.RouterKey
		items []wire.Item
	}
	groups := make(map[string]*group)
	groupOf := func(router string) *group {
		owner := ring.Owner(router)
		if owner == "" {
			owner = n.cfg.ID
		}
		g := groups[owner]
		if g == nil {
			g = &group{}
			groups[owner] = g
		}
		return g
	}
	for _, rk := range keys {
		g := groupOf(rk.Router)
		g.keys = append(g.keys, rk)
	}
	for _, it := range items {
		g := groupOf(routerOfItem(&it))
		g.items = append(g.items, it)
	}
	owners := make([]string, 0, len(groups))
	for o := range groups {
		owners = append(owners, o)
	}
	sort.Strings(owners)

	var res handoffResult
	var firstErr error
	for _, owner := range owners {
		g := groups[owner]
		mem, ok := n.ms.lookup(owner)
		var err error
		if !ok || mem.DataAddr == "" || mem.CtrlAddr == "" {
			err = fmt.Errorf("cluster: handoff destination %s unknown", owner)
		}
		if err == nil {
			if err = n.pushKeys(mem, g.keys); err == nil {
				g.keys = nil
			}
		}
		for err == nil && len(g.items) > 0 {
			nn := min(len(g.items), transferBatchItems)
			var br collector.BatchResult
			br, err = postBatchBinary(ctx, n.httpc, mem.DataAddr, wire.AppendBatch(nil, g.items[:nn]))
			if err == nil {
				res.applied += br.Applied
				res.duplicates += br.Duplicates
				g.items = g.items[nn:]
			}
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			res.keys = append(res.keys, g.keys...)
			res.items = append(res.items, g.items...)
		}
	}
	return res, firstErr
}

// pushKeys sends one owner its keys, grouped by router, in
// MsgTransferKeys pushes of at most transferKeysPerMsg keys.
func (n *Node) pushKeys(mem Member, keys []dataset.RouterKey) error {
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].Router < keys[j].Router })
	for len(keys) > 0 {
		nn := min(len(keys), transferKeysPerMsg)
		var entries []ManifestEntry
		for _, rk := range keys[:nn] {
			if len(entries) == 0 || entries[len(entries)-1].Router != rk.Router {
				entries = append(entries, ManifestEntry{Router: rk.Router})
			}
			en := &entries[len(entries)-1]
			en.Keys = append(en.Keys, rk.Key)
		}
		if _, err := postCtrl(n.httpc, mem.CtrlAddr, "/cluster/transferkeys", &Message{
			Kind:         MsgTransferKeys,
			TransferKeys: &TransferKeys{From: n.cfg.ID, Entries: entries},
		}, 30*time.Second); err != nil {
			return fmt.Errorf("cluster: key push to %s: %w", mem.ID, err)
		}
		n.mXferKeys.Add(int64(nn))
		keys = keys[nn:]
	}
	return nil
}

// postBatchBinary POSTs one NPB2 batch to a data plane and decodes the
// BatchResult.
func postBatchBinary(ctx context.Context, httpc *http.Client, dataAddr string, batch []byte) (collector.BatchResult, error) {
	var res collector.BatchResult
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+dataAddr+"/v1/batch", bytes.NewReader(batch))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err := httpc.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("batch post to %s: %s: %s", dataAddr, resp.Status, bytes.TrimSpace(body))
	}
	err = json.Unmarshal(body, &res)
	return res, err
}

// retry runs fn until it succeeds or ctx ends, logging each failure and
// backing off from 100 ms, doubling up to 2 s, between attempts.
func (n *Node) retry(ctx context.Context, what string, fn func() error) error {
	backoff := 100 * time.Millisecond
	for {
		err := fn()
		if err == nil {
			return nil
		}
		n.log.Warn(what+" failed, retrying", "err", err)
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: %s: %w (last error: %v)", what, ctx.Err(), err)
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// JoinRing adds this node to the routing ring: propose an epoch over
// the current composition plus self, fence, pull ownership from every
// peer in transfer rounds until an entire round moves nothing, then
// commit. The node must have been started with NodeConfig.Joining so
// the legacy membership ring never routed to it early.
func (n *Node) JoinRing(ctx context.Context) error {
	// One synchronous exchange with every known peer before planning:
	// peers relay their full member tables, so a composition computed
	// moments after process start cannot silently omit a live node this
	// process has not gossiped about yet.
	n.gsp.broadcast()
	base := n.ms.planningNodes()
	for _, id := range base {
		if id == n.cfg.ID {
			// Already a ring member (e.g. a retried join after the
			// commit landed): nothing to transfer.
			n.ms.setJoining(false)
			return nil
		}
	}
	next := n.ms.proposeEpoch(append(base, n.cfg.ID))
	n.log.Info("join: proposed ring epoch", "version", next.Version, "nodes", next.Nodes)
	n.gsp.broadcast()
	if err := n.waitEpochVisible(ctx, next.Version); err != nil {
		return err
	}
	for round := 1; ; round++ {
		var moved uint64
		for _, src := range next.Nodes {
			if src == n.cfg.ID {
				continue
			}
			rows, err := n.requestTransfer(ctx, src, next)
			if err != nil {
				return fmt.Errorf("cluster: join: transfer from %s: %w", src, err)
			}
			moved += rows
		}
		n.log.Info("join: transfer round", "round", round, "rows", moved)
		if moved == 0 {
			break
		}
	}
	committed, ok := n.ms.commitEpoch(next.Version)
	if !ok {
		return fmt.Errorf("cluster: join: epoch %d superseded before commit", next.Version)
	}
	n.ms.setJoining(false)
	n.gsp.broadcast()
	n.gEpoch.Set(float64(committed.Version))
	n.log.Info("join: ring epoch committed", "version", committed.Version, "nodes", committed.Nodes)
	return nil
}

// Drain removes this node from the routing ring: propose the current
// composition minus self, fence, stream everything this node holds to
// the surviving owners, re-home the replication-journal frames it holds
// as a successor, then commit. After Drain returns nil the node owns
// nothing and the process can be stopped.
func (n *Node) Drain(ctx context.Context) error {
	if !n.draining.CompareAndSwap(false, true) {
		return fmt.Errorf("cluster: drain already in progress")
	}
	done := false
	defer func() {
		if !done {
			n.draining.Store(false) // a failed drain may be retried
		}
	}()
	// As in JoinRing: refresh the member table from every known peer
	// before planning, so a drain issued right after start (or relayed
	// by a front that knows more of the cluster than this node yet
	// does) cannot propose a composition missing a live node — that
	// would evict the unplanned node's ownership without a transfer.
	n.gsp.broadcast()
	base := n.ms.planningNodes()
	var remaining []string
	inRing := false
	for _, id := range base {
		if id == n.cfg.ID {
			inRing = true
			continue
		}
		remaining = append(remaining, id)
	}
	if !inRing {
		done = true
		return nil
	}
	if len(remaining) == 0 {
		return fmt.Errorf("cluster: cannot drain the last ring node")
	}
	next := n.ms.proposeEpoch(remaining)
	n.log.Info("drain: proposed ring epoch", "version", next.Version, "nodes", next.Nodes)
	n.gsp.broadcast()
	if err := n.waitEpochVisible(ctx, next.Version); err != nil {
		return err
	}
	moved, err := n.rebalanceLoop(ctx, next)
	if err != nil {
		return err
	}
	if err := n.rehomeJournal(ctx, next); err != nil {
		return err
	}
	committed, ok := n.ms.commitEpoch(next.Version)
	if !ok {
		return fmt.Errorf("cluster: drain: epoch %d superseded before commit", next.Version)
	}
	n.gsp.broadcast()
	n.gEpoch.Set(float64(committed.Version))
	// Post-commit sweep: anything that landed here during the cutover
	// (a failover replay racing the fence, a straggling direct POST)
	// moves out before the operator stops the process.
	if swept, err := n.rebalanceLoop(ctx, committed); err != nil {
		n.log.Warn("drain: post-commit sweep incomplete", "err", err)
	} else {
		moved += swept
	}
	done = true
	n.log.Info("drained", "epoch", committed.Version, "rows", moved)
	return nil
}

// waitEpochVisible blocks until every live member's gossiped
// EpochVersion has reached version — the cluster-wide fence barrier.
// Broadcasting between polls pushes the epoch instead of waiting for
// random-pair gossip to percolate it.
func (n *Node) waitEpochVisible(ctx context.Context, version uint64) error {
	for {
		lagging := ""
		for _, mv := range n.ms.view() {
			if mv.State != StateDead && mv.EpochVersion < version {
				lagging = mv.ID
				break
			}
		}
		if lagging == "" {
			return nil
		}
		n.gsp.broadcast()
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: epoch %d not visible at %s: %w", version, lagging, ctx.Err())
		case <-time.After(n.cfg.Gossip.Interval):
		}
	}
}

// requestTransfer asks one source node to run its transfer sessions for
// the proposed epoch and reports how many rows it moved. Retries until
// ctx expires — a source mid-session answers when its lock frees.
func (n *Node) requestTransfer(ctx context.Context, src string, e *RingEpoch) (uint64, error) {
	var rows uint64
	err := n.retry(ctx, "transfer request to "+src, func() error {
		mem, ok := n.ms.lookup(src)
		if !ok || mem.CtrlAddr == "" {
			return fmt.Errorf("source %s unknown", src)
		}
		m, err := postCtrl(n.httpc, mem.CtrlAddr, "/cluster/transfer", &Message{
			Kind:        MsgTransferRequest,
			TransferReq: &TransferRequest{From: n.cfg.ID, Epoch: e},
		}, 2*time.Minute)
		if err != nil {
			return err
		}
		if m == nil || m.Kind != MsgTransferResponse {
			return fmt.Errorf("unexpected transfer reply")
		}
		rows = m.TransferResp.Rows
		return nil
	})
	return rows, err
}

// rebalanceLoop runs extract-and-send sessions against the epoch's ring
// until one moves zero rows. Rows that arrive after the zero session
// stay put for the caller's next pass (the commit-then-sweep in Drain,
// or the next transfer round in JoinRing).
func (n *Node) rebalanceLoop(ctx context.Context, e *RingEpoch) (uint64, error) {
	var total uint64
	for {
		moved, err := n.rebalanceOnce(ctx, e)
		if err != nil {
			return total, err
		}
		total += moved
		if moved == 0 {
			return total, nil
		}
		select {
		case <-ctx.Done():
			return total, ctx.Err()
		default:
		}
	}
}

// rebalanceOnce is one transfer session: atomically extract every row
// the epoch's ring assigns to someone else and hand the rows, with the
// moved routers' idempotency keys, to their new owners. Returns the
// extracted row count (the loop's termination signal). The handoff is
// retried until ctx expires; whatever it still could not deliver is
// restored into the local store, so rows are never stranded in memory.
// Delivered chunks stay moved: they live at the destination, and their
// xfer keys make any later re-send flatten to duplicates. Extraction
// returns a router's keys for as long as the source remembers them,
// rows or no rows, so every session re-pushes them.
func (n *Node) rebalanceOnce(ctx context.Context, e *RingEpoch) (uint64, error) {
	n.xferMu.Lock()
	defer n.xferMu.Unlock()

	ring := NewRing(e.Nodes, DefaultVnodes)
	if ring.Len() == 0 {
		return 0, nil
	}
	rs, ok := n.srv.Sharded().(dataset.RebalanceStore)
	if !ok {
		return 0, fmt.Errorf("cluster: store does not support rebalancing")
	}
	moved, keys := rs.ExtractRouters(func(router string) bool {
		o := ring.Owner(router)
		return o != "" && o != n.cfg.ID
	})
	items := transferItems(n.cfg.ID, n.xferSess.Add(1), moved)
	err := n.retry(ctx, "transfer handoff", func() error {
		res, err := n.handoff(ctx, ring, keys, items)
		keys, items = res.keys, res.items
		return err
	})
	if err != nil {
		n.restoreItems(items)
		return 0, err
	}
	rows := storeRows(moved)
	n.mXferRows.Add(int64(rows))
	return uint64(rows), nil
}

// storeRows counts a snapshot's rows across every data set.
func storeRows(st *dataset.Store) int {
	return len(st.Uptime) + len(st.Capacity) + len(st.Counts) + len(st.Sightings) +
		len(st.WiFi) + len(st.Flows) + len(st.Throughput)
}

// transferItems re-encodes an extracted snapshot as keyed items. Every
// item carries a deterministic xfer idempotency key (so redelivery
// dedupes) and rows stay in extraction order. Roster entries come first
// as /v1/register items so the destination knows a router before its
// rows. Device sightings ride as JSON censusUpload bodies without a
// count row — a typed KindDevices item cannot carry sightings alone, and
// counts and sightings moved independently cannot be re-paired.
func transferItems(src string, sess uint64, moved *dataset.Store) []wire.Item {
	var items []wire.Item
	idx := make(map[string]int)
	add := func(router string, kind int, endpoint string, p wire.Payload) {
		ik := fmt.Sprintf("%s\x00%d", router, kind)
		key := fmt.Sprintf("%s:xfer:%s:%d:%d:%d", router, src, sess, kind, idx[ik])
		idx[ik]++
		items = append(items, wire.Item{Endpoint: endpoint, Key: key, Payload: p})
	}

	routers := make([]string, 0, len(moved.RouterCountry))
	for id := range moved.RouterCountry {
		routers = append(routers, id)
	}
	sort.Strings(routers)
	for _, id := range routers {
		body, _ := json.Marshal(struct {
			RouterID string `json:"router_id"`
			Country  string `json:"country,omitempty"`
		}{id, moved.RouterCountry[id]})
		add(id, xfkRegister, "/v1/register", wire.Payload{Kind: wire.KindRaw, Raw: body})
	}
	for _, row := range moved.Uptime {
		add(row.RouterID, xfkUptime, "/v1/uptime", wire.Payload{Kind: wire.KindUptime, Uptime: row})
	}
	for _, row := range moved.Capacity {
		add(row.RouterID, xfkCapacity, "/v1/capacity", wire.Payload{Kind: wire.KindCapacity, Capacity: row})
	}
	for _, row := range moved.Counts {
		add(row.RouterID, xfkCount, "/v1/devices", wire.Payload{Kind: wire.KindDevices, Count: row})
	}
	runs(moved.Sightings, func(r dataset.DeviceSighting) string { return r.RouterID }, func(router string, run []dataset.DeviceSighting) {
		body, _ := json.Marshal(struct {
			Sightings []dataset.DeviceSighting `json:"sightings"`
		}{run})
		add(router, xfkSightings, "/v1/devices", wire.Payload{Kind: wire.KindRaw, Raw: body})
	})
	runs(moved.WiFi, func(r dataset.WiFiScan) string { return r.RouterID }, func(router string, run []dataset.WiFiScan) {
		add(router, xfkWiFi, "/v1/wifi", wire.Payload{Kind: wire.KindWiFi, WiFi: run})
	})
	runs(moved.Flows, func(r dataset.FlowRecord) string { return r.RouterID }, func(router string, run []dataset.FlowRecord) {
		add(router, xfkFlows, "/v1/traffic/flows", wire.Payload{Kind: wire.KindFlows, Flows: run})
	})
	runs(moved.Throughput, func(r dataset.ThroughputSample) string { return r.RouterID }, func(router string, run []dataset.ThroughputSample) {
		add(router, xfkThroughput, "/v1/traffic/throughput", wire.Payload{Kind: wire.KindThroughput, Throughput: run})
	})
	return items
}

// runs invokes emit for maximal consecutive same-router row runs,
// capped at transferRunRows rows each.
func runs[T any](rows []T, router func(T) string, emit func(router string, run []T)) {
	start := 0
	for i := 1; i <= len(rows); i++ {
		if i == len(rows) || router(rows[i]) != router(rows[start]) || i-start >= transferRunRows {
			emit(router(rows[start]), rows[start:i])
			start = i
		}
	}
}

// restoreItems re-appends undelivered transfer items into this node's
// own store (Append, not Apply — their keys were never forgotten).
// Arrival order within the store is perturbed relative to the original
// ingest, which snapshot digests tolerate: they sort rows.
func (n *Node) restoreItems(items []wire.Item) {
	if len(items) == 0 {
		return
	}
	store := n.srv.Sharded()
	for i := range items {
		it := &items[i]
		router := routerOfItem(it)
		switch p := &it.Payload; p.Kind {
		case wire.KindUptime:
			store.Append(router, func(s *dataset.Store) { s.Uptime = append(s.Uptime, p.Uptime) })
		case wire.KindCapacity:
			store.Append(router, func(s *dataset.Store) { s.Capacity = append(s.Capacity, p.Capacity) })
		case wire.KindDevices:
			store.Append(router, func(s *dataset.Store) {
				if p.Count != (dataset.DeviceCount{}) {
					s.Counts = append(s.Counts, p.Count)
				}
				s.Sightings = append(s.Sightings, p.Sightings...)
			})
		case wire.KindWiFi:
			store.Append(router, func(s *dataset.Store) { s.WiFi = append(s.WiFi, p.WiFi...) })
		case wire.KindFlows:
			store.Append(router, func(s *dataset.Store) { s.Flows = append(s.Flows, p.Flows...) })
		case wire.KindThroughput:
			store.Append(router, func(s *dataset.Store) { s.Throughput = append(s.Throughput, p.Throughput...) })
		case wire.KindRaw:
			n.restoreRawItem(store, router, it)
		}
	}
	n.log.Warn("restored undelivered transfer items", "items", len(items))
}

// restoreRawItem handles the two raw transfer forms: register bodies
// and sightings-only census bodies.
func (n *Node) restoreRawItem(store dataset.IngestStore, router string, it *wire.Item) {
	switch it.Endpoint {
	case "/v1/register":
		var reg struct {
			RouterID string `json:"router_id"`
			Country  string `json:"country"`
		}
		if json.Unmarshal(it.Payload.Raw, &reg) == nil && reg.RouterID != "" {
			store.Append(reg.RouterID, func(s *dataset.Store) { s.RouterCountry[reg.RouterID] = reg.Country })
		}
	case "/v1/devices":
		var up struct {
			Sightings []dataset.DeviceSighting `json:"sightings"`
		}
		if json.Unmarshal(it.Payload.Raw, &up) == nil && len(up.Sightings) > 0 {
			store.Append(router, func(s *dataset.Store) { s.Sightings = append(s.Sightings, up.Sightings...) })
		}
	}
}

// rehomeJournal re-replicates the unreplayed frames this node holds as
// a successor to a surviving epoch node, so draining does not silently
// shrink the frames' replication factor. The receiver's journalSeen
// hash flattens duplicates, and its own replay scan takes over the
// successor duty. A frame with no eligible replacement (replication ≥
// surviving nodes) is logged and left — its owner still holds the rows.
func (n *Node) rehomeJournal(ctx context.Context, e *RingEpoch) error {
	n.mu.Lock()
	entries := make([]*journalEntry, 0, len(n.journal))
	for _, en := range n.journal {
		if !en.replayed {
			entries = append(entries, en)
		}
	}
	n.mu.Unlock()
	rehomed := 0
	for _, en := range entries {
		holds := map[string]bool{en.owner: true, n.cfg.ID: true}
		for _, s := range en.succs {
			holds[s] = true
		}
		target := ""
		for _, id := range e.Nodes {
			if !holds[id] {
				target = id
				break
			}
		}
		if target == "" {
			n.log.Warn("drain: no replacement successor for journal frame",
				"owner", en.owner, "items", en.items)
			continue
		}
		mem, ok := n.ms.lookup(target)
		if !ok || mem.CtrlAddr == "" {
			return fmt.Errorf("cluster: drain: replacement successor %s unknown", target)
		}
		succs := make([]string, 0, len(en.succs))
		for _, s := range en.succs {
			if s == n.cfg.ID {
				succs = append(succs, target)
			} else {
				succs = append(succs, s)
			}
		}
		if err := n.retry(ctx, "drain: re-home journal to "+target, func() error {
			_, err := postCtrl(n.httpc, mem.CtrlAddr, "/cluster/replicate", &Message{
				Kind:      MsgReplicate,
				Replicate: &Replicate{Owner: en.owner, Successors: succs, Batch: en.batch},
			}, 30*time.Second)
			return err
		}); err != nil {
			return err
		}
		rehomed++
	}
	if rehomed > 0 {
		n.log.Info("drain: re-homed journal frames", "frames", rehomed)
	}
	return nil
}

// handleTransfer serves MsgTransferRequest: adopt the proposed epoch
// (fencing this node's own routing view), run transfer sessions until
// one moves nothing, and answer with the total rows moved.
func (n *Node) handleTransfer(w http.ResponseWriter, r *http.Request) {
	m, ok := n.readCtrl(w, r, MsgTransferRequest)
	if !ok {
		return
	}
	req := m.TransferReq
	if req.Epoch == nil || len(req.Epoch.Nodes) == 0 {
		http.Error(w, "cluster: transfer request without epoch", http.StatusBadRequest)
		return
	}
	n.ms.mergeEpochs(nil, req.Epoch)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	rows, err := n.rebalanceLoop(ctx, req.Epoch)
	if err != nil {
		http.Error(w, "cluster: transfer: "+err.Error(), http.StatusInternalServerError)
		return
	}
	n.writeCtrl(w, &Message{Kind: MsgTransferResponse,
		TransferResp: &TransferResponse{From: n.cfg.ID, Rows: rows}})
}

// handleTransferKeys seeds a handoff's pushed idempotency keys into the
// local dedupe index and records them so this node's own manifests
// serve them onward: they came with rows this node now owns. Pulled
// keys are seeded but not recorded — they vouch for rows held
// elsewhere, which this node cannot vouch for.
func (n *Node) handleTransferKeys(w http.ResponseWriter, r *http.Request) {
	m, ok := n.readCtrl(w, r, MsgTransferKeys)
	if !ok {
		return
	}
	n.seedKeys(m.TransferKeys.Entries)
	n.mu.Lock()
	for _, en := range m.TransferKeys.Entries {
		n.rememberKeysLocked(en.Router, en.Keys...)
	}
	n.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleDrain serves MsgDrain (relayed by a front's admin endpoint):
// kick off the drain in the background and acknowledge with 202.
func (n *Node) handleDrain(w http.ResponseWriter, r *http.Request) {
	m, ok := n.readCtrl(w, r, MsgDrain)
	if !ok {
		return
	}
	if m.Drain.Node != n.cfg.ID {
		http.Error(w, fmt.Sprintf("cluster: drain addressed to %s, this is %s", m.Drain.Node, n.cfg.ID),
			http.StatusBadRequest)
		return
	}
	if n.draining.Load() {
		w.WriteHeader(http.StatusAccepted)
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		if err := n.Drain(ctx); err != nil {
			n.log.Error("drain failed", "err", err)
		}
	}()
	w.WriteHeader(http.StatusAccepted)
}

// handleEpoch reports the node's epoch state as JSON (ops/tests).
func (n *Node) handleEpoch(w http.ResponseWriter, r *http.Request) {
	writeEpochJSON(w, n.ms)
}

// epochJSON is the ops-facing shape of one ring epoch.
type epochJSON struct {
	Version   uint64   `json:"version"`
	Committed bool     `json:"committed"`
	Nodes     []string `json:"nodes"`
}

func toEpochJSON(e *RingEpoch) *epochJSON {
	if e == nil {
		return nil
	}
	return &epochJSON{Version: e.Version, Committed: e.Committed, Nodes: e.Nodes}
}

func writeEpochJSON(w http.ResponseWriter, ms *membership) {
	cur, next := ms.epochs()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Current *epochJSON `json:"current"`
		Pending *epochJSON `json:"pending"`
	}{toEpochJSON(cur), toEpochJSON(next)})
}
