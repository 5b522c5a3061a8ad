// Package cluster scales the collector horizontally: a lightweight
// front tier routes uploads by router-ID consistent hash to N collector
// nodes, replicates every acknowledged write to R-1 successors, and
// hands shard ownership off when a node joins, leaves, or dies. The
// paper's deployment was a few hundred routers behind one collector;
// the ROADMAP north star is millions, and past PR 5's sharded store and
// PR 7's binary ingest the single process itself is the ceiling.
//
// The design leans on two properties the platform already has:
//
//   - Every measurement upload carries a router-prefixed idempotency
//     key, and every store shard keeps a dedupe index. Routing, retry,
//     failover, and handoff therefore never have to be exactly-once
//     themselves — any at-least-once delivery converges to exactly-once
//     rows, which is what the chaos soak's zero-lost/zero-duplicated
//     oracle proves.
//   - Batches already have a compact wire form (NPB2). Replication and
//     handoff move raw NPB2 batch bytes, so a replica journals without
//     decoding rows and a failover replay is a plain /v1/batch POST.
package cluster

import (
	"slices"
	"sort"
)

// DefaultVnodes is the number of ring points each node projects.
// Enough that removing one of three nodes moves only its own ~1/3 of
// routers (the classic consistent-hashing guarantee) with a spread a
// few percent off even; small enough that ring rebuilds are free.
const DefaultVnodes = 64

// Ring is an immutable consistent-hash ring over collector node IDs.
// Routers map to the first ring point clockwise from their hash; the
// owning node is that point's, and successors are the next distinct
// nodes clockwise (the replica set). Membership changes build a new
// Ring rather than mutating, so lookups are lock-free.
type Ring struct {
	nodes  []string
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring from node IDs (order-insensitive; duplicates
// ignored) with vnodes points per node (DefaultVnodes if <= 0).
func NewRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(ids))
	r := &Ring{}
	for _, id := range ids {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		r.nodes = append(r.nodes, id)
	}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*vnodes)
	var buf []byte
	for ni, id := range r.nodes {
		for v := 0; v < vnodes; v++ {
			buf = append(buf[:0], id...)
			buf = append(buf, '#', byte(v), byte(v>>8))
			r.points = append(r.points, ringPoint{hash: hash64(buf), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.node < b.node
	})
	return r
}

// Nodes returns the distinct node IDs on the ring, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Len is the number of distinct nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Lookup returns the replica set for a router: its owner followed by
// up to n-1 distinct successor nodes clockwise. Returns nil on an
// empty ring; fewer than n when the ring is smaller than n. The result
// is the only allocation: successors are deduplicated by scanning it.
func (r *Ring) Lookup(router string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	i := r.first(router)
	out := make([]string, 0, n)
	for scanned := 0; scanned < len(r.points) && len(out) < n; scanned++ {
		id := r.nodes[r.points[(i+scanned)%len(r.points)].node]
		if !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// Owner returns the router's owning node ("" on an empty ring).
func (r *Ring) Owner(router string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.first(router)].node]
}

// first is the index of the router's ring point: the first clockwise
// from its hash, wrapping past the end. The ring must not be empty.
func (r *Ring) first(router string) int {
	h := hash64(router)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return i % len(r.points)
}

// hash64 is FNV-1a (the repo-wide pick for non-adversarial placement
// hashing; dataset.Sharded shards routers the same way) run through a
// 64-bit finalizer. The mix matters here where it does not for shard
// selection: sequential IDs like "rt-0001".."rt-0031" leave FNV's
// high-order bits barely dispersed, and the ring positions by range
// over the full word rather than by modulus — without the finalizer,
// whole ID sequences land in one node's arc. It is written out rather
// than taken from hash/fnv so that hashing a string allocates nothing.
func hash64[S ~string | ~[]byte](b S) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211 // FNV-64 prime
	}
	return mix64(h)
}

// mix64 is the murmur3 fmix64 finalizer: full avalanche, so nearby
// inputs spread across the whole ring.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
