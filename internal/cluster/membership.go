package cluster

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// GossipConfig tunes the anti-entropy exchange and the local failure
// detector. Tests use millisecond values; production defaults are
// conservative enough that a GC pause never declares anyone dead.
type GossipConfig struct {
	// Interval between gossip rounds (and beat bumps). Default 1s.
	Interval time.Duration
	// SuspectAfter is how long a member's beat may stall before it is
	// locally suspect (still on the ring, flagged in views). Default 3s.
	SuspectAfter time.Duration
	// DeadAfter is how long before a stalled member is locally dead:
	// off the ring, journals replayed. Default 10s.
	DeadAfter time.Duration
}

func (c GossipConfig) withDefaults() GossipConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * time.Second
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter * 3
	}
	return c
}

// State is a member's locally judged liveness. It is derived, never
// gossiped: each process times members' beat advancement on its own
// clock (see Member).
type State uint8

// Liveness states.
const (
	StateAlive State = iota
	StateSuspect
	StateDead
)

func (s State) String() string {
	switch s {
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return "alive"
}

// MemberView is a membership snapshot entry: the gossiped identity plus
// this process's liveness judgement.
type MemberView struct {
	Member
	State State
	// LastAdvance is when this process last saw the member's beat move.
	LastAdvance time.Time
}

// membership is the gossiped member table plus the local failure
// detector. Shared by nodes and fronts.
type membership struct {
	cfg GossipConfig
	now func() time.Time

	mu    sync.Mutex
	self  Member
	peers map[string]*peerEntry
	// cur is the latest committed ring epoch; next is a pending
	// proposal strictly newer than cur. Both nil until the first
	// planned membership change — epoch-less clusters route purely by
	// gossiped membership, exactly as before epochs existed.
	cur  *RingEpoch
	next *RingEpoch

	// The rings routing asks for on every request, memoized: ringCache
	// was built from exactly the node list ringIDs, pendCache from the
	// pending epoch pendFor (epochs are replaced, never mutated).
	ringIDs, ringScratch []string
	ringCache            *Ring
	pendFor              *RingEpoch
	pendCache            *Ring
}

type peerEntry struct {
	m           Member
	lastAdvance time.Time
}

func newMembership(self Member, cfg GossipConfig) *membership {
	return &membership{
		cfg:   cfg.withDefaults(),
		now:   time.Now,
		self:  self,
		peers: make(map[string]*peerEntry),
	}
}

// bump advances the local beat and returns the updated self entry.
func (ms *membership) bump() Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.self.Beat++
	ms.self.EpochVersion = ms.epochVersionLocked()
	return ms.self
}

// epochVersionLocked is the highest epoch version this process has
// seen, pending included. Caller holds mu.
func (ms *membership) epochVersionLocked() uint64 {
	v := uint64(0)
	if ms.cur != nil {
		v = ms.cur.Version
	}
	if ms.next != nil && ms.next.Version > v {
		v = ms.next.Version
	}
	return v
}

// setJoining flips the self entry's Joining flag (cleared when a join
// epoch commits).
func (ms *membership) setJoining(j bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.self.Joining = j
}

// merge folds remote knowledge in. A higher incarnation replaces a
// member wholesale (rejoin with fresh addresses); within an
// incarnation only a strictly newer beat counts as advancement.
func (ms *membership) merge(members []Member) {
	now := ms.now()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, m := range members {
		if m.ID == "" || m.ID == ms.self.ID {
			continue
		}
		pe, ok := ms.peers[m.ID]
		switch {
		case !ok:
			ms.peers[m.ID] = &peerEntry{m: m, lastAdvance: now}
		case m.Incarnation > pe.m.Incarnation,
			m.Incarnation == pe.m.Incarnation && m.Beat > pe.m.Beat:
			pe.m = m
			pe.lastAdvance = now
		}
	}
}

// snapshot is the full member table for a gossip exchange: self first,
// then every peer (including locally-dead ones — their stalled beats
// carry the verdict to anyone who hasn't noticed yet).
func (ms *membership) snapshot() []Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.self.EpochVersion = ms.epochVersionLocked()
	out := make([]Member, 0, 1+len(ms.peers))
	out = append(out, ms.self)
	for _, pe := range ms.peers {
		out = append(out, pe.m)
	}
	return out
}

// mergeEpochs folds a gossiped epoch pair in. Committed epochs win by
// version; a pending proposal is adopted only if strictly newer than
// everything known (with a deterministic node-list tie-break so
// concurrent proposals at the same version converge cluster-wide
// instead of splitting on arrival order). A commit at or past the
// pending version retires the proposal.
func (ms *membership) mergeEpochs(cur, next *RingEpoch) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.mergeEpochLocked(cur)
	ms.mergeEpochLocked(next)
}

func (ms *membership) mergeEpochLocked(e *RingEpoch) {
	if e == nil || len(e.Nodes) == 0 {
		return
	}
	if e.Committed {
		if ms.cur == nil || e.Version > ms.cur.Version {
			ms.cur = e.clone()
		}
	} else if ms.cur == nil || e.Version > ms.cur.Version {
		switch {
		case ms.next == nil || e.Version > ms.next.Version:
			ms.next = e.clone()
		case e.Version == ms.next.Version && nodesKey(e.Nodes) < nodesKey(ms.next.Nodes):
			ms.next = e.clone()
		}
	}
	if ms.cur != nil && ms.next != nil && ms.next.Version <= ms.cur.Version {
		ms.next = nil
	}
}

// nodesKey is the tie-break ordering for same-version proposals.
func nodesKey(nodes []string) string { return strings.Join(nodes, "\x00") }

// proposeEpoch installs a pending epoch over the given ring composition
// at a version past everything seen, and returns it for gossiping.
func (ms *membership) proposeEpoch(nodes []string) *RingEpoch {
	ids := append([]string(nil), nodes...)
	sort.Strings(ids)
	ms.mu.Lock()
	defer ms.mu.Unlock()
	e := &RingEpoch{Version: ms.epochVersionLocked() + 1, Nodes: ids}
	ms.next = e
	return e.clone()
}

// commitEpoch promotes the pending proposal at version to the committed
// ring. It fails (ok=false) if the proposal was superseded while the
// coordinator was transferring — the coordinator must not clear fencing
// for an epoch the cluster no longer agrees on.
func (ms *membership) commitEpoch(version uint64) (*RingEpoch, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.next == nil || ms.next.Version != version {
		return nil, false
	}
	ms.cur = &RingEpoch{Version: version, Committed: true, Nodes: ms.next.Nodes}
	ms.next = nil
	return ms.cur.clone(), true
}

// epochs returns clones of the committed and pending epochs (either may
// be nil).
func (ms *membership) epochs() (cur, next *RingEpoch) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.cur.clone(), ms.next.clone()
}

// view is the judged membership, sorted by ID, self included.
func (ms *membership) view() []MemberView {
	now := ms.now()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]MemberView, 0, 1+len(ms.peers))
	out = append(out, MemberView{Member: ms.self, State: StateAlive, LastAdvance: now})
	for _, pe := range ms.peers {
		mv := MemberView{Member: pe.m, State: StateAlive, LastAdvance: pe.lastAdvance}
		switch age := now.Sub(pe.lastAdvance); {
		case age > ms.cfg.DeadAfter:
			mv.State = StateDead
		case age > ms.cfg.SuspectAfter:
			mv.State = StateSuspect
		}
		out = append(out, mv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ring returns the routing hash ring. With a committed epoch, its node
// list IS the ring — filtered by local liveness so a dead epoch member
// still fails over via journals — and membership only supplies
// addresses. Without one (a cluster that has never resized), the ring
// derives from gossiped membership as before: RoleNode, not locally
// dead, and not mid-join. Suspects stay on the ring — pulling them on
// the first stalled beat would flap ownership under load spikes; only a
// dead verdict moves shards. The ring is rebuilt only when that node
// list changes; until then every call returns the same *Ring.
func (ms *membership) ring() *Ring {
	now := ms.now()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	live := func(m Member, lastAdvance time.Time) bool {
		return m.Role == RoleNode && (m.ID == ms.self.ID || now.Sub(lastAdvance) <= ms.cfg.DeadAfter)
	}
	ids := ms.ringScratch[:0]
	if ms.cur != nil {
		for _, id := range ms.cur.Nodes {
			if id == ms.self.ID {
				if live(ms.self, now) {
					ids = append(ids, id)
				}
			} else if pe, ok := ms.peers[id]; ok && live(pe.m, pe.lastAdvance) {
				ids = append(ids, id)
			}
		}
	} else {
		if live(ms.self, now) && !ms.self.Joining {
			ids = append(ids, ms.self.ID)
		}
		for _, pe := range ms.peers {
			if live(pe.m, pe.lastAdvance) && !pe.m.Joining {
				ids = append(ids, pe.m.ID)
			}
		}
		sort.Strings(ids)
	}
	ms.ringScratch = ids
	if ms.ringCache == nil || !slices.Equal(ids, ms.ringIDs) {
		ms.ringIDs = append(ms.ringIDs[:0], ids...)
		ms.ringCache = NewRing(ids, DefaultVnodes)
	}
	return ms.ringCache
}

// pendingRing is the ring a pending epoch proposes, unfiltered by
// liveness — fencing compares ownership deterministically, the same on
// every front. It is built once per pending epoch.
func (ms *membership) pendingRing() *Ring {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.next == nil {
		return nil
	}
	if ms.pendFor != ms.next {
		ms.pendFor, ms.pendCache = ms.next, NewRing(ms.next.Nodes, DefaultVnodes)
	}
	return ms.pendCache
}

// planningNodes is the node set a coordinator starts a membership
// change from: the committed epoch's nodes if one exists, else the
// ring-eligible live members (joiners excluded).
func (ms *membership) planningNodes() []string {
	cur, _ := ms.epochs()
	if cur != nil {
		return append([]string(nil), cur.Nodes...)
	}
	var ids []string
	for _, mv := range ms.view() {
		if mv.Role == RoleNode && mv.State != StateDead && !mv.Joining {
			ids = append(ids, mv.ID)
		}
	}
	return ids
}

// lookup returns a member's current identity.
func (ms *membership) lookup(id string) (Member, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if id == ms.self.ID {
		return ms.self, true
	}
	pe, ok := ms.peers[id]
	if !ok {
		return Member{}, false
	}
	return pe.m, true
}
