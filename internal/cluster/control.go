package cluster

import (
	"fmt"

	"natpeek/internal/codec"
)

// The control plane speaks a small binary protocol ("NPC1") over plain
// HTTP POSTs between peers: membership gossip, the key manifests a
// rejoining node pulls to rebuild its dedupe index, and the replicate
// frames the front fans out to a write's successor nodes. A message is
// the magic, one kind byte, then the kind's fields in the primitives of
// package codec (str, uvarint, count-prefixed lists, 0/1 flag bytes),
// read with its bounds-checked Reader — counts and lengths are
// validated against the remaining input before a single byte of them
// is allocated, and trailing bytes after a complete message are an
// error, never silently ignored. The codec is fuzzed (FuzzControlDecode)
// with checked-in seed corpora.

// ctrlMagic starts every NPC1 buffer ("natpeek control, version 1").
const ctrlMagic = "NPC1"

// MsgKind discriminates the control-plane message envelope.
type MsgKind uint8

// Control-plane message kinds.
const (
	MsgGossip MsgKind = iota + 1
	MsgManifestRequest
	MsgManifestResponse
	MsgReplicate
	MsgTransferRequest
	MsgTransferResponse
	MsgTransferKeys
	MsgDrain

	msgKindMax = MsgDrain
)

// Role distinguishes ring-eligible collector nodes from front routers.
type Role uint8

// Member roles. Only RoleNode members project points onto the hash
// ring; RoleFront members gossip so nodes know their routers, but own
// nothing.
const (
	RoleNode Role = iota
	RoleFront
)

func (r Role) String() string {
	if r == RoleFront {
		return "front"
	}
	return "node"
}

// Member is one process's gossiped identity. State is deliberately NOT
// part of the wire form: each process judges liveness locally from how
// recently a member's Beat advanced, so a partitioned peer's stale
// opinion can never declare a node dead cluster-wide.
type Member struct {
	ID       string
	Role     Role
	CtrlAddr string // control-plane HTTP address (gossip, replicate, manifest)
	DataAddr string // data-plane address (collector /v1/* for nodes, front HTTP for fronts)
	// Incarnation is bumped each time the process (re)starts — a
	// rejoining node's fresh incarnation supersedes everything peers
	// remember about its previous life, including its old addresses.
	Incarnation uint64
	// Beat is the member's self-incremented heartbeat counter; liveness
	// is "has this advanced recently, as observed by MY clock".
	Beat uint64
	// EpochVersion is the highest ring-epoch version this member has
	// seen (committed or pending). A rebalance coordinator waits for
	// every live member's EpochVersion to reach its proposal before
	// moving a single row — that barrier is what makes the fronts'
	// cutover fencing airtight.
	EpochVersion uint64
	// Joining marks a node that has started its process but not yet
	// completed ownership transfer: it gossips (so peers learn its
	// addresses and the epoch spreads) but must not appear in the
	// legacy membership-derived ring until its join epoch commits.
	Joining bool
}

// RingEpoch is one versioned ring composition. Epochs totally order
// planned membership changes: a committed epoch's Nodes ARE the ring
// (filtered by local liveness), and a pending epoch fences writes whose
// ownership is about to move. Versions only grow; gossip merges by
// version with committed state always superseding a pending proposal of
// the same version.
type RingEpoch struct {
	Version   uint64
	Committed bool
	Nodes     []string
}

func (e *RingEpoch) clone() *RingEpoch {
	if e == nil {
		return nil
	}
	return &RingEpoch{Version: e.Version, Committed: e.Committed,
		Nodes: append([]string(nil), e.Nodes...)}
}

// Gossip is one half of an anti-entropy exchange: the full membership
// the sender knows. The receiver merges it and answers with its own.
// Full-state exchange is quadratic in members but the tier is tens of
// processes, not thousands; delta gossip is a non-goal at this scale.
type Gossip struct {
	From    string
	Members []Member
	// Cur/Next piggyback the sender's ring-epoch state (latest
	// committed epoch and pending proposal, either may be nil) on every
	// exchange, so epochs spread exactly as fast as membership does.
	Cur  *RingEpoch
	Next *RingEpoch
}

// ManifestRequest asks a peer for applied idempotency keys. With
// Routers empty it is the join-time bulk pull: keys the peer applied
// for every router the joiner would own under the prospective
// membership. With Routers set it is a targeted query — keys for
// exactly those routers, regardless of ring ownership — used by the
// first-write gate to catch writes applied elsewhere during an
// ownership change.
type ManifestRequest struct {
	Joiner  string
	Members []Member
	Routers []string
}

// ManifestEntry is one router's applied keys.
type ManifestEntry struct {
	Router string
	Keys   []string
}

// ManifestResponse is the answering peer's applied-key manifest.
type ManifestResponse struct {
	From    string
	Entries []ManifestEntry
}

// Replicate carries one acknowledged write to a successor node: the
// placement that chose it plus the raw NPB2 batch bytes, journaled
// verbatim. The successor never decodes rows — if the owner dies, the
// first live successor replays the bytes as a plain /v1/batch POST and
// the idempotency keys inside make the replay converge.
type Replicate struct {
	Owner      string
	Successors []string
	Batch      []byte
}

// TransferRequest asks a peer to push every row it holds that the
// proposed epoch assigns to someone else, through the new owners' own
// data planes. The peer adopts Epoch as its pending proposal (fencing
// its view too), runs extract-and-send sessions until a pass moves
// nothing, and answers with the row count it moved — the coordinator
// keeps issuing rounds until a full round is all-zero.
type TransferRequest struct {
	From  string
	Epoch *RingEpoch
}

// TransferResponse reports one peer's completed transfer pass.
type TransferResponse struct {
	From string
	Rows uint64
}

// TransferKeys pushes moved routers' idempotency keys to their new
// owner, chunked, so client retries that land there after cutover
// dedupe instead of re-applying. (The first-write manifest gate would
// eventually pull the same keys; pushing them makes the window not
// depend on the source staying alive — essential for drains.)
type TransferKeys struct {
	From    string
	Entries []ManifestEntry
}

// Drain asks a node (always addressed to itself — the front relays the
// operator request to the named node's control plane) to transfer all
// its ownership away and leave the ring.
type Drain struct {
	Node string
}

// Message is the decoded one-of envelope; exactly the field matching
// Kind is non-nil.
type Message struct {
	Kind         MsgKind
	Gossip       *Gossip
	ManifestReq  *ManifestRequest
	ManifestResp *ManifestResponse
	Replicate    *Replicate
	TransferReq  *TransferRequest
	TransferResp *TransferResponse
	TransferKeys *TransferKeys
	Drain        *Drain
}

// AppendMessage encodes a message onto dst and returns the extended
// buffer.
func AppendMessage(dst []byte, m *Message) []byte {
	w := &codec.Writer{Buf: append(dst, ctrlMagic...)}
	w.Byte(byte(m.Kind))
	switch m.Kind {
	case MsgGossip:
		w.Str(m.Gossip.From)
		codec.AppendList(w, m.Gossip.Members, putMember)
		putEpoch(w, m.Gossip.Cur)
		putEpoch(w, m.Gossip.Next)
	case MsgManifestRequest:
		w.Str(m.ManifestReq.Joiner)
		codec.AppendList(w, m.ManifestReq.Members, putMember)
		codec.AppendList(w, m.ManifestReq.Routers, (*codec.Writer).Str)
	case MsgManifestResponse:
		w.Str(m.ManifestResp.From)
		codec.AppendList(w, m.ManifestResp.Entries, putEntry)
	case MsgReplicate:
		w.Str(m.Replicate.Owner)
		codec.AppendList(w, m.Replicate.Successors, (*codec.Writer).Str)
		w.Blob(m.Replicate.Batch)
	case MsgTransferRequest:
		w.Str(m.TransferReq.From)
		putEpoch(w, m.TransferReq.Epoch)
	case MsgTransferResponse:
		w.Str(m.TransferResp.From)
		w.Uvarint(m.TransferResp.Rows)
	case MsgTransferKeys:
		w.Str(m.TransferKeys.From)
		codec.AppendList(w, m.TransferKeys.Entries, putEntry)
	case MsgDrain:
		w.Str(m.Drain.Node)
	}
	return w.Buf
}

// memberFlagJoining marks a Member still mid-join (see Member.Joining).
// Unknown flag bits are a decode error, keeping the encoding canonical.
const memberFlagJoining = 1 << 0

func putMember(w *codec.Writer, m Member) {
	w.Str(m.ID)
	w.Byte(byte(m.Role))
	w.Str(m.CtrlAddr)
	w.Str(m.DataAddr)
	w.Uvarint(m.Incarnation)
	w.Uvarint(m.Beat)
	w.Uvarint(m.EpochVersion)
	var flags byte
	if m.Joining {
		flags |= memberFlagJoining
	}
	w.Byte(flags)
}

func readMember(r *codec.Reader) Member {
	m := Member{ID: r.Str()}
	if role := r.Byte(); role > byte(RoleFront) {
		r.Fail("role %d", role)
	} else {
		m.Role = Role(role)
	}
	m.CtrlAddr = r.Str()
	m.DataAddr = r.Str()
	m.Incarnation = r.Uvarint()
	m.Beat = r.Uvarint()
	m.EpochVersion = r.Uvarint()
	flags := r.Byte()
	if flags&^memberFlagJoining != 0 {
		r.Fail("member flags %#x", flags)
	}
	m.Joining = flags&memberFlagJoining != 0
	return m
}

// putEpoch encodes an optional RingEpoch: a presence flag, then
// version, committed flag, and the node list.
func putEpoch(w *codec.Writer, ep *RingEpoch) {
	w.Bool(ep != nil)
	if ep == nil {
		return
	}
	w.Uvarint(ep.Version)
	w.Bool(ep.Committed)
	codec.AppendList(w, ep.Nodes, (*codec.Writer).Str)
}

// readEpoch decodes an optional RingEpoch. Flag bytes outside {0,1} are
// rejected so every valid message has exactly one encoding.
func readEpoch(r *codec.Reader) *RingEpoch {
	if !r.Bool() {
		return nil
	}
	return &RingEpoch{Version: r.Uvarint(), Committed: r.Bool(),
		Nodes: codec.List(r, (*codec.Reader).Str)}
}

func putEntry(w *codec.Writer, en ManifestEntry) {
	w.Str(en.Router)
	codec.AppendList(w, en.Keys, (*codec.Writer).Str)
}

func readEntry(r *codec.Reader) ManifestEntry {
	return ManifestEntry{Router: r.Str(), Keys: codec.List(r, (*codec.Reader).Str)}
}

// DecodeMessage decodes one NPC1 message. The whole buffer must be
// exactly one message: trailing bytes are an error.
func DecodeMessage(buf []byte) (*Message, error) {
	if len(buf) < len(ctrlMagic)+1 || string(buf[:len(ctrlMagic)]) != ctrlMagic {
		return nil, fmt.Errorf("cluster: control message lacks NPC1 magic")
	}
	m := &Message{Kind: MsgKind(buf[len(ctrlMagic)])}
	r := codec.NewReader(buf[len(ctrlMagic)+1:])
	switch m.Kind {
	case MsgGossip:
		m.Gossip = &Gossip{From: r.Str(), Members: codec.List(r, readMember),
			Cur: readEpoch(r), Next: readEpoch(r)}
	case MsgManifestRequest:
		m.ManifestReq = &ManifestRequest{Joiner: r.Str(), Members: codec.List(r, readMember),
			Routers: codec.List(r, (*codec.Reader).Str)}
	case MsgManifestResponse:
		m.ManifestResp = &ManifestResponse{From: r.Str(), Entries: codec.List(r, readEntry)}
	case MsgReplicate:
		m.Replicate = &Replicate{Owner: r.Str(), Successors: codec.List(r, (*codec.Reader).Str),
			// Copied out (callers journal batches past the request
			// buffer's lifetime); always non-nil so an empty batch
			// re-encodes identically.
			Batch: append([]byte{}, r.Blob()...)}
	case MsgTransferRequest:
		m.TransferReq = &TransferRequest{From: r.Str(), Epoch: readEpoch(r)}
	case MsgTransferResponse:
		m.TransferResp = &TransferResponse{From: r.Str(), Rows: r.Uvarint()}
	case MsgTransferKeys:
		m.TransferKeys = &TransferKeys{From: r.Str(), Entries: codec.List(r, readEntry)}
	case MsgDrain:
		m.Drain = &Drain{Node: r.Str()}
	default:
		return nil, fmt.Errorf("cluster: unknown control message kind %d", m.Kind)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("cluster: control message: %w", err)
	}
	return m, nil
}
