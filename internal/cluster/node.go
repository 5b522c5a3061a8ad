package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/telemetry"
	"natpeek/internal/wire"
)

// ctrlContentType is the media type of NPC1 control-plane requests.
const ctrlContentType = "application/x-natpeek-ctrl"

// ctrlMaxBody bounds control-plane request bodies. Replicate frames
// carry at most one data-plane batch (8 MiB) plus framing; gossip and
// manifests are far smaller.
const ctrlMaxBody = 9 << 20

// NodeConfig configures one cluster collector node.
type NodeConfig struct {
	// ID is the node's stable identity on the hash ring. Required.
	ID string
	// UDPAddr/HTTPAddr are the wrapped collector's listen addresses
	// (the data plane); CtrlAddr is the control plane's. Use
	// "127.0.0.1:0" style addresses for ephemeral ports.
	UDPAddr, HTTPAddr, CtrlAddr string
	// Peers seeds discovery: control-plane addresses of any existing
	// members. Empty for the first node of a cluster.
	Peers []string
	// Gossip tunes the anti-entropy exchange and failure detector.
	Gossip GossipConfig
	// Store, when non-nil, is ingested into instead of a fresh one.
	Store dataset.IngestStore
	// MaxInflight caps concurrent data-plane uploads (collector
	// SetMaxInflight semantics); 0 keeps the collector default.
	MaxInflight int
	// Joining starts the node outside the routing ring: it gossips (so
	// peers learn its addresses) but owns nothing until JoinRing
	// commits the epoch that includes it. Scale-out always sets this —
	// a new node that silently appeared in the membership-derived ring
	// would take writes for shards whose history lives elsewhere.
	Joining bool
}

// Node is one cluster member: a full collector server (the data plane,
// untouched semantics — admission control, dedupe, tracing) plus the
// control plane that makes it a cluster: gossip membership, a
// replication journal for batches it is a successor for, key manifests
// for peers' first-write gates, and failover replay when an owner dies.
type Node struct {
	cfg NodeConfig
	srv *collector.Server
	ms  *membership
	log *slog.Logger

	ctrl   *http.Server
	ctrlLn net.Listener
	httpc  *http.Client

	mu sync.Mutex
	// journal holds replicate frames this node accepted as a successor:
	// raw NPB2 batch bytes plus the placement that chose this node. On
	// an owner's death the first live successor hands the frame's items
	// to their current owners; idempotency keys make replays converge.
	journal     []*journalEntry
	journalSeen map[uint64]bool
	// ownerKeys indexes every idempotency key this node applied (or was
	// handed with moved rows), per router — the source for the manifests
	// a peer's first-write gate seeds its dedupe index from.
	ownerKeys map[string]map[string]bool
	// Journaled frames' keys are indexed per entry (journalEntry.keys):
	// manifests serve a frame's keys only while its owner still holds
	// the rows (or after the replay landed them somewhere) — serving
	// them for a dead owner's unreplayed frame would seed the replay
	// destination's dedupe index with keys whose rows exist nowhere yet,
	// and the replay itself would then flatten to duplicates and lose
	// the rows.
	// routerGate tracks the first-write check per router (see gateRouter):
	// each router's first keyed write since process start blocks until
	// this node has pulled that router's applied keys from its live
	// peers, so a write applied elsewhere while ownership was in flux is
	// recognized as a duplicate rather than re-applied.
	routerGate map[string]chan struct{}

	gsp *gossiper

	// xferMu serializes extract-and-send transfer sessions (a drain and
	// an inbound transfer request must not interleave extracts).
	xferMu   sync.Mutex
	xferSess atomic.Uint64
	draining atomic.Bool

	mJournalFrames *telemetry.Counter
	gJournalBytes  *telemetry.Gauge
	mReplayed      *telemetry.Counter
	mReplayRows    *telemetry.Counter
	mXferRows      *telemetry.Counter
	mXferKeys      *telemetry.Counter
	gEpoch         *telemetry.Gauge

	stop    chan struct{}
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

type journalEntry struct {
	owner string
	succs []string
	items int
	batch []byte
	// ownerInc is the owner's incarnation when the frame was journaled
	// (0 if the owner was unknown then). A later incarnation means the
	// owner restarted — its in-memory store died with the old life, so
	// the frame's rows exist only in journals and must replay even
	// though the owner looks alive again.
	ownerInc uint64
	// succIncs mirrors succs with each successor's incarnation at
	// journal time (0 if unknown). The first-live-successor walk skips
	// a successor whose incarnation changed: its journal died with its
	// previous life, so it cannot replay the frame it "holds".
	succIncs []uint64
	// keys are the frame's keyed items per router, recorded at journal
	// time so manifests can serve (or withhold) them per frame.
	keys     map[string][]string
	replayed bool
}

// ownerHoldsRows reports whether the frame's rows are still believed to
// live at the journaled owner: the owner is not judged dead and has not
// been reborn under a new incarnation. It is the one "owner lost"
// verdict: replayScan replays a frame when it is false, and manifests
// withhold the keys of an unreplayed frame when it is false.
func (e *journalEntry) ownerHoldsRows(state map[string]State, incs map[string]uint64) bool {
	st, known := state[e.owner]
	if known && st == StateDead {
		return false
	}
	if e.ownerInc != 0 && known && incs[e.owner] != e.ownerInc {
		return false
	}
	return true
}

// judge returns every member's locally judged state and incarnation,
// the inputs of ownerHoldsRows. A record in self overrides the local
// incarnation: a requester knows which life it is in before gossip has
// told this node, and its frames from a previous life must be judged
// lost even while the local view still shows the old incarnation.
func (n *Node) judge(self []Member) (map[string]State, map[string]uint64) {
	state := make(map[string]State)
	incs := make(map[string]uint64)
	for _, mv := range n.ms.view() {
		state[mv.ID] = mv.State
		incs[mv.ID] = mv.Incarnation
	}
	for _, m := range self {
		incs[m.ID] = m.Incarnation
	}
	return state, incs
}

// NewNode starts a cluster node: collector listeners, control-plane
// listener, a learn-only exchange with the seed peers (without
// revealing itself), and the gossip loop. The node takes no keyed write
// it could mistake for new: the first-write gate (gateRouter) pulls each
// router's keys from the live peers before that router's first apply.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: node needs an ID")
	}
	cfg.Gossip = cfg.Gossip.withDefaults()
	srv, err := collector.NewServer(cfg.UDPAddr, cfg.HTTPAddr, cfg.Store)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", cfg.ID, err)
	}
	if cfg.MaxInflight > 0 {
		srv.SetMaxInflight(cfg.MaxInflight)
	}
	ln, err := net.Listen("tcp", cfg.CtrlAddr)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("cluster: node %s: control listen: %w", cfg.ID, err)
	}
	reg := telemetry.Default
	n := &Node{
		cfg:         cfg,
		srv:         srv,
		log:         slog.Default().With("component", "cluster-node", "node", cfg.ID),
		ctrlLn:      ln,
		httpc:       &http.Client{},
		journalSeen: make(map[uint64]bool),
		ownerKeys:   make(map[string]map[string]bool),
		routerGate:  make(map[string]chan struct{}),
		mJournalFrames: reg.CounterVec("natpeek_cluster_journal_frames_total",
			"Replicate frames journaled as a successor, per node.", "node").With(cfg.ID),
		gJournalBytes: reg.GaugeVec("natpeek_cluster_journal_bytes",
			"Raw NPB2 bytes held in the replication journal, per node.", "node").With(cfg.ID),
		mReplayed: reg.CounterVec("natpeek_cluster_replayed_frames_total",
			"Journaled frames replayed after an owner died, per node.", "node").With(cfg.ID),
		mReplayRows: reg.CounterVec("natpeek_cluster_replayed_items_total",
			"Batch items applied by failover replays, per node.", "node").With(cfg.ID),
		mXferRows: reg.CounterVec("natpeek_cluster_transfer_rows_total",
			"Rows streamed to new owners by planned rebalancing, per node.", "node").With(cfg.ID),
		mXferKeys: reg.CounterVec("natpeek_cluster_transfer_keys_total",
			"Idempotency keys pushed to new owners by planned rebalancing, per node.", "node").With(cfg.ID),
		gEpoch: reg.GaugeVec("natpeek_cluster_ring_epoch",
			"Highest ring-epoch version this node has seen, per node.", "node").With(cfg.ID),
		stop: make(chan struct{}),
	}
	// Incarnation is the start instant: any restart of the same ID
	// supersedes its previous life in every peer's member table.
	n.ms = newMembership(Member{
		ID: cfg.ID, Role: RoleNode,
		CtrlAddr:    ln.Addr().String(),
		DataAddr:    srv.HTTPAddr(),
		Incarnation: uint64(time.Now().UnixNano()),
		Joining:     cfg.Joining,
	}, cfg.Gossip)
	n.gsp = newGossiper(cfg.ID, n.ms, n.httpc, cfg.Peers, n.log)

	srv.SetIngestObserver(n.observeIngest)
	srv.SetIngestGate(n.gateRouter)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/gossip", n.handleGossip)
	mux.HandleFunc("POST /cluster/replicate", n.handleReplicate)
	mux.HandleFunc("POST /cluster/manifest", n.handleManifest)
	mux.HandleFunc("POST /cluster/transfer", n.handleTransfer)
	mux.HandleFunc("POST /cluster/transferkeys", n.handleTransferKeys)
	mux.HandleFunc("POST /cluster/drain", n.handleDrain)
	mux.HandleFunc("GET /cluster/members", n.handleMembers)
	mux.HandleFunc("GET /cluster/epoch", n.handleEpoch)
	n.ctrl = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go n.ctrl.Serve(ln)

	n.gsp.learn()
	n.wg.Add(1)
	go n.gossipLoop()
	n.log.Debug("node up", "data", n.DataAddr(), "ctrl", n.CtrlAddr())
	return n, nil
}

// ID returns the node's ring identity.
func (n *Node) ID() string { return n.cfg.ID }

// DataAddr is the wrapped collector's HTTP address.
func (n *Node) DataAddr() string { return n.srv.HTTPAddr() }

// CtrlAddr is the control-plane HTTP address.
func (n *Node) CtrlAddr() string { return n.ctrlLn.Addr().String() }

// UDPAddr is the wrapped collector's heartbeat address.
func (n *Node) UDPAddr() string { return n.srv.UDPAddr() }

// Collector exposes the wrapped server (tests, stats).
func (n *Node) Collector() *collector.Server { return n.srv }

// Store returns a merged snapshot of this node's shard of the data.
func (n *Node) Store() *dataset.Store { return n.srv.Store() }

// View returns the node's judged membership.
func (n *Node) View() []MemberView { return n.ms.view() }

// JournalStats reports the replication journal's size: frames held,
// raw NPB2 bytes, and how many frames have been replayed by failover.
func (n *Node) JournalStats() (frames, bytes, replayed int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range n.journal {
		frames++
		bytes += len(e.batch)
		if e.replayed {
			replayed++
		}
	}
	return
}

// Close shuts the node down gracefully (drains in-flight uploads).
func (n *Node) Close() error { return n.shutdown(true) }

// Kill force-closes everything immediately — the chaos harness's
// process crash. In-flight uploads drop mid-request, the journal and
// store die with the process (the test discards the Node), and peers
// find out the hard way, via the failure detector.
func (n *Node) Kill() error { return n.shutdown(false) }

func (n *Node) shutdown(graceful bool) error {
	n.closeMu.Lock()
	if n.closed {
		n.closeMu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	n.closeMu.Unlock()

	var err error
	if graceful {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		err = n.ctrl.Shutdown(ctx)
		cancel()
		if cerr := n.srv.Close(); err == nil {
			err = cerr
		}
	} else {
		err = n.ctrl.Close()
		if cerr := n.srv.Abort(); err == nil {
			err = cerr
		}
	}
	n.wg.Wait()
	return err
}

// observeIngest runs on the collector's ingest path for every keyed
// decision and records applied keys per router. Only the map insert is
// under the node lock; manifests read the same index.
func (n *Node) observeIngest(_, key, router string, applied bool) {
	if key == "" || !applied {
		return
	}
	n.mu.Lock()
	n.rememberKeysLocked(router, key)
	n.mu.Unlock()
}

// rememberKeysLocked adds keys to ownerKeys. Caller holds n.mu.
func (n *Node) rememberKeysLocked(router string, keys ...string) {
	ks := n.ownerKeys[router]
	if ks == nil {
		ks = make(map[string]bool)
		n.ownerKeys[router] = ks
	}
	for _, k := range keys {
		ks[k] = true
	}
}

// gateRouter runs before every keyed apply (the collector's ingest
// gate) and blocks a router's first keyed write since process start
// until this node has pulled the router's keys from its live peers. It
// is the node's only key pull, and every write passes it — client
// uploads, failover replays and transfer chunks alike, since all of
// them enter through the data plane. So a node that restarted empty
// recognizes retries of writes acked in its previous life, and a batch
// partially applied at an interim owner while ownership was in flux,
// then retried here after routing flipped, dedupes: the interim apply
// precedes the routing flip, which precedes the first write arriving
// here. Later writes for the router pass straight through; the whole
// check costs one targeted manifest RPC per router per process
// lifetime.
func (n *Node) gateRouter(router string) {
	n.mu.Lock()
	done, ok := n.routerGate[router]
	if ok {
		n.mu.Unlock()
		<-done
		return
	}
	done = make(chan struct{})
	n.routerGate[router] = done
	n.mu.Unlock()
	n.seedRouterKeys(router)
	close(done)
}

// seedRouterKeys pulls one router's applied-or-journaled keys from
// every live peer node and seeds the local dedupe index. The request
// carries this node's own member record, so each donor judges this
// node's journaled frames by the incarnation that is asking (see
// judge). Best effort per peer: a peer that cannot answer is skipped
// (its copy of an acked write is also in a journal, and an unacked
// write will be retried by the client either way).
func (n *Node) seedRouterKeys(router string) {
	self, _ := n.ms.lookup(n.cfg.ID)
	for _, mv := range n.ms.view() {
		if mv.Role != RoleNode || mv.State == StateDead || mv.ID == n.cfg.ID {
			continue
		}
		m, err := postCtrl(n.httpc, mv.CtrlAddr, "/cluster/manifest", &Message{
			Kind: MsgManifestRequest,
			ManifestReq: &ManifestRequest{Joiner: n.cfg.ID, Members: []Member{self},
				Routers: []string{router}},
		}, 5*time.Second)
		if err != nil || m.Kind != MsgManifestResponse {
			n.log.Warn("first-write key pull failed", "router", router, "peer", mv.ID, "err", err)
			continue
		}
		n.seedKeys(m.ManifestResp.Entries)
	}
}

// seedKeys marks keys applied in the local dedupe index without adding
// rows (a no-op apply). Both ways keys reach a node use it: the
// first-write pull and a transfer's key push.
func (n *Node) seedKeys(entries []ManifestEntry) {
	store := n.srv.Sharded()
	for _, en := range entries {
		for _, k := range en.Keys {
			store.Apply(en.Router, k, func(*dataset.Store) {})
		}
	}
}

// gossipLoop is the node's heartbeat: bump our beat, exchange tables
// with a random live peer, and scan the journal for frames orphaned by
// a dead owner.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.Gossip.Interval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.gsp.once()
		n.replayScan()
	}
}

// replayScan finds journaled frames whose owner lost its store — it is
// judged dead, or it came back under a new incarnation (a restart wipes
// the in-memory store, so "alive again" does not mean the rows are) —
// and, when this node is the frame's first live successor, hands the
// frame's items to their current owners (handoff). The scan runs every
// tick and each due frame gets one handoff attempt per tick, so a
// replay that fails (or an owner that dies later) is retried until it
// lands without ever blocking the gossip loop; idempotency keys make
// every retry converge to exactly-once rows. Frames journaled before the
// owner was known (ownerInc 0) only replay on death, never on an
// incarnation change — a spurious rebirth replay of rows the owner still
// holds would double-count them cluster-wide.
func (n *Node) replayScan() {
	state, incs := n.judge(nil)
	n.mu.Lock()
	var due []*journalEntry
	for _, e := range n.journal {
		if e.replayed || e.ownerHoldsRows(state, incs) {
			continue
		}
		// First successor still standing inherits the frame. A
		// successor that is dead — or reborn under a new incarnation,
		// meaning its journal died with its previous life — cannot
		// replay and is skipped. Everyone holding the frame runs the
		// same rule, so exactly one live node replays it (disagreeing
		// views would only add replays, which dedupe flattens).
		for i, s := range e.succs {
			if state[s] == StateDead {
				continue
			}
			if i < len(e.succIncs) && e.succIncs[i] != 0 && incs[s] != e.succIncs[i] {
				continue
			}
			if s == n.cfg.ID {
				due = append(due, e)
			}
			break
		}
	}
	n.mu.Unlock()

	for _, e := range due {
		res, err := n.replay(e)
		if err != nil {
			n.log.Warn("failover replay failed, will retry", "owner", e.owner, "err", err)
			continue
		}
		n.mu.Lock()
		e.replayed = true
		n.mu.Unlock()
		n.mReplayed.Inc()
		n.mReplayRows.Add(int64(res.applied))
		n.log.Info("replayed orphaned frame", "owner", e.owner, "items", e.items,
			"applied", res.applied, "duplicates", res.duplicates)
	}
}

// replay hands a journaled frame's items to their owners under the
// CURRENT ring, in one attempt. Routing at replay time matters once the
// ring can change shape: after a drain moved a dead owner's routers,
// their history and dedupe keys live at the new owner, and a replay
// applied anywhere else would re-create rows the cluster already
// acknowledged. The items carry their client keys, so no key set
// travels with them.
func (n *Node) replay(e *journalEntry) (handoffResult, error) {
	items, err := decodeBatchItems(wire.ContentTypeBinary, e.batch)
	if err != nil {
		return handoffResult{}, err
	}
	return n.handoff(context.Background(), n.ms.ring(), nil, items)
}

func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	m, ok := n.readCtrl(w, r, MsgGossip)
	if !ok {
		return
	}
	n.ms.merge(m.Gossip.Members)
	n.ms.mergeEpochs(m.Gossip.Cur, m.Gossip.Next)
	cur, next := n.ms.epochs()
	n.gEpoch.Set(float64(maxEpochVersion(cur, next)))
	n.writeCtrl(w, &Message{Kind: MsgGossip,
		Gossip: &Gossip{From: n.cfg.ID, Members: n.ms.snapshot(), Cur: cur, Next: next}})
}

func maxEpochVersion(cur, next *RingEpoch) uint64 {
	v := uint64(0)
	if cur != nil {
		v = cur.Version
	}
	if next != nil && next.Version > v {
		v = next.Version
	}
	return v
}

func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	m, ok := n.readCtrl(w, r, MsgReplicate)
	if !ok {
		return
	}
	rep := m.Replicate
	// Validate before journaling: bytes that cannot replay are refused
	// now, while the front can still fail the client's request.
	items, frameKeys, err := scanBatch(rep.Batch)
	if err != nil {
		http.Error(w, "replicate: bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	var ownerInc uint64
	if owner, ok := n.ms.lookup(rep.Owner); ok {
		ownerInc = owner.Incarnation
	}
	succIncs := make([]uint64, len(rep.Successors))
	for i, s := range rep.Successors {
		if mem, ok := n.ms.lookup(s); ok {
			succIncs[i] = mem.Incarnation
		}
	}
	h := hash64(rep.Batch)
	n.mu.Lock()
	if !n.journalSeen[h] {
		n.journalSeen[h] = true
		n.journal = append(n.journal, &journalEntry{
			owner: rep.Owner, succs: rep.Successors, items: items, batch: rep.Batch,
			ownerInc: ownerInc, succIncs: succIncs, keys: frameKeys,
		})
		n.mJournalFrames.Inc()
		n.gJournalBytes.Add(float64(len(rep.Batch)))
	}
	n.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleManifest answers a first-write key pull: for each requested
// router, the union of keys this node applied and keys inside frames it
// journaled. A journaled key was acked by an owner whose store may
// since have died, and serving both lets a reborn owner dedupe a client
// retry even when it races the replay. One carve-out: a frame whose
// owner is LOST and whose replay has not happened yet is withheld — its
// rows exist nowhere right now, and seeding its keys into the node the
// replay will route to would make that replay flatten to duplicates and
// lose the rows for good. The requester's own frames are judged by the
// incarnation in its request, not by this node's possibly stale view.
func (n *Node) handleManifest(w http.ResponseWriter, r *http.Request) {
	m, ok := n.readCtrl(w, r, MsgManifestRequest)
	if !ok {
		return
	}
	req := m.ManifestReq
	state, incs := n.judge(req.Members)
	resp := &ManifestResponse{From: n.cfg.ID}
	n.mu.Lock()
	for _, router := range req.Routers {
		union := make(map[string]bool, len(n.ownerKeys[router]))
		for k := range n.ownerKeys[router] {
			union[k] = true
		}
		for _, e := range n.journal {
			if e.replayed || e.ownerHoldsRows(state, incs) {
				for _, k := range e.keys[router] {
					union[k] = true
				}
			}
		}
		if len(union) == 0 {
			continue
		}
		en := ManifestEntry{Router: router, Keys: make([]string, 0, len(union))}
		for k := range union {
			en.Keys = append(en.Keys, k)
		}
		resp.Entries = append(resp.Entries, en)
	}
	n.mu.Unlock()
	n.writeCtrl(w, &Message{Kind: MsgManifestResponse, ManifestResp: resp})
}

func (n *Node) handleMembers(w http.ResponseWriter, r *http.Request) {
	writeMembersJSON(w, n.ms.view())
}

// readCtrl decodes one NPC1 request of the expected kind.
func (n *Node) readCtrl(w http.ResponseWriter, r *http.Request, want MsgKind) (*Message, bool) {
	body, err := readBody(w, r, ctrlMaxBody)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	m, err := DecodeMessage(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if m.Kind != want {
		http.Error(w, fmt.Sprintf("cluster: want message kind %d, got %d", want, m.Kind), http.StatusBadRequest)
		return nil, false
	}
	return m, true
}

func (n *Node) writeCtrl(w http.ResponseWriter, m *Message) {
	w.Header().Set("Content-Type", ctrlContentType)
	w.Write(AppendMessage(nil, m))
}

// scanBatch walks an NPB2 buffer and returns its item count plus the
// router→keys index of its keyed items, erroring on anything the
// collector would refuse to decode.
func scanBatch(batch []byte) (int, map[string][]string, error) {
	dec := decoderPool.Get().(*wire.Decoder)
	defer decoderPool.Put(dec)
	if err := dec.Reset(batch); err != nil {
		return 0, nil, err
	}
	items := 0
	var keys map[string][]string
	var it wire.Item
	for {
		err := dec.Next(&it)
		if err == io.EOF {
			return items, keys, nil
		}
		if err != nil {
			return 0, nil, err
		}
		items++
		if it.Key != "" {
			if keys == nil {
				keys = make(map[string][]string)
			}
			router := routerOfItem(&it)
			keys[router] = append(keys[router], it.Key)
		}
	}
}

// memberViewJSON is the ops-facing /cluster/members entry.
type memberViewJSON struct {
	ID          string `json:"id"`
	Role        string `json:"role"`
	State       string `json:"state"`
	CtrlAddr    string `json:"ctrl_addr"`
	DataAddr    string `json:"data_addr"`
	Incarnation uint64 `json:"incarnation"`
	Beat        uint64 `json:"beat"`
}

func writeMembersJSON(w http.ResponseWriter, view []MemberView) {
	out := make([]memberViewJSON, 0, len(view))
	for _, mv := range view {
		out = append(out, memberViewJSON{
			ID: mv.ID, Role: mv.Role.String(), State: mv.State.String(),
			CtrlAddr: mv.CtrlAddr, DataAddr: mv.DataAddr,
			Incarnation: mv.Incarnation, Beat: mv.Beat,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
