// Planned ownership transfer: when the cluster resizes, a node must
// hand a router's full row set — not just its journaled tail — to the
// router's new owner. The store side of that hand-off lives here: an
// atomic extract that removes a set of routers' rows while *retaining*
// their idempotency keys, so a client retry that arrives after the move
// still dedupes at the old home instead of resurrecting a row that now
// lives elsewhere.
package dataset

import "strings"

// RouterKey pairs an idempotency key with the router whose rows it
// guarded. The router is recovered from the key's "<router>:..." prefix
// (the convention every keyed client follows), so the set can be
// re-seeded at a destination with the same stripe routing.
type RouterKey struct {
	Router string
	Key    string
}

// KeyRouter extracts the router prefix of an idempotency key
// ("<router>:..."). Keys without a prefix belong to the unattributed
// router "".
func KeyRouter(key string) string {
	if i := strings.IndexByte(key, ':'); i > 0 {
		return key[:i]
	}
	return ""
}

// RebalanceStore is the store surface the cluster's transfer engine
// needs on top of plain ingestion. Both IngestStore implementations
// (*Sharded and the segment store) provide it.
//
// ExtractRouters returns a consistent snapshot of the rows, roster
// entries, and remembered idempotency keys belonging to routers
// selected by match, and removes the matched rows and roster entries
// atomically with the snapshot, so no concurrently-arriving row is ever
// silently dropped between snapshot and eviction. Extracted dedupe keys
// are returned but NOT forgotten: the source keeps rejecting replays of
// moved uploads, which is what keeps exactly-once intact while a retry
// horizon straddles the move. Heartbeat logs are not part of the
// snapshot (in cluster mode they live at the front tier).
type RebalanceStore interface {
	IngestStore
	ExtractRouters(match func(router string) bool) (*Store, []RouterKey)
}

var _ RebalanceStore = (*Sharded)(nil)

// SplitRouters partitions a plain Store's rows and roster by router:
// rows whose RouterID is selected by match land in hit, everything else
// in rest, with per-slice order preserved on both sides. Neither output
// carries a heartbeat log or dedupe state. The segment store uses this
// to filter decoded segment files during an extract.
func SplitRouters(st *Store, match func(string) bool) (hit, rest *Store) {
	hit = &Store{RouterCountry: make(map[string]string)}
	rest = &Store{RouterCountry: make(map[string]string)}
	for id, cc := range st.RouterCountry {
		if match(id) {
			hit.RouterCountry[id] = cc
		} else {
			rest.RouterCountry[id] = cc
		}
	}
	hit.Uptime, rest.Uptime = splitRows(st.Uptime, func(r UptimeReport) string { return r.RouterID }, match)
	hit.Capacity, rest.Capacity = splitRows(st.Capacity, func(r CapacityMeasure) string { return r.RouterID }, match)
	hit.Counts, rest.Counts = splitRows(st.Counts, func(r DeviceCount) string { return r.RouterID }, match)
	hit.Sightings, rest.Sightings = splitRows(st.Sightings, func(r DeviceSighting) string { return r.RouterID }, match)
	hit.WiFi, rest.WiFi = splitRows(st.WiFi, func(r WiFiScan) string { return r.RouterID }, match)
	hit.Flows, rest.Flows = splitRows(st.Flows, func(r FlowRecord) string { return r.RouterID }, match)
	hit.Throughput, rest.Throughput = splitRows(st.Throughput, func(r ThroughputSample) string { return r.RouterID }, match)
	return hit, rest
}

func splitRows[T any](rows []T, router func(T) string, match func(string) bool) (hit, rest []T) {
	for _, r := range rows {
		if match(router(r)) {
			hit = append(hit, r)
		} else {
			rest = append(rest, r)
		}
	}
	return hit, rest
}

// ExtractRouters implements RebalanceStore: a consistent (all stripes
// locked) snapshot of the matched routers' rows in global arrival order,
// their roster entries and their remembered idempotency keys, plus
// removal of the matched rows and roster entries under the same lock
// acquisition.
// Dedupe keys stay in the index (see RebalanceStore). Each stripe is
// rebuilt seg-by-seg so the surviving rows keep their arrival-order
// segment stamps — a later Merge interleaves them exactly as if the
// moved rows had never arrived.
func (s *Sharded) ExtractRouters(match func(string) bool) (*Store, []RouterKey) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	moved := &Store{RouterCountry: make(map[string]string)}
	s.collectMatchedLocked(moved, match)
	keys := s.matchedKeysLocked(match)
	for _, sh := range s.shards {
		for id := range sh.store.RouterCountry {
			if match(id) {
				delete(sh.store.RouterCountry, id)
			}
		}
		extractShardRows(sh, match)
	}
	return moved, keys
}

// collectMatchedLocked appends every matched row into out in global
// arrival order, and copies matched roster entries. Caller holds all
// stripe locks.
func (s *Sharded) collectMatchedLocked(out *Store, match func(string) bool) {
	nsegs := 0
	for _, sh := range s.shards {
		nsegs += len(sh.segs)
		for id, cc := range sh.store.RouterCountry {
			if match(id) {
				out.RouterCountry[id] = cc
			}
		}
	}
	for _, r := range s.orderedRefs(nsegs) {
		st, seg := r.st, r.seg
		switch seg.kind {
		case kindUptime:
			for _, row := range st.Uptime[seg.off : seg.off+seg.n] {
				if match(row.RouterID) {
					out.Uptime = append(out.Uptime, row)
				}
			}
		case kindCapacity:
			for _, row := range st.Capacity[seg.off : seg.off+seg.n] {
				if match(row.RouterID) {
					out.Capacity = append(out.Capacity, row)
				}
			}
		case kindCounts:
			for _, row := range st.Counts[seg.off : seg.off+seg.n] {
				if match(row.RouterID) {
					out.Counts = append(out.Counts, row)
				}
			}
		case kindSightings:
			for _, row := range st.Sightings[seg.off : seg.off+seg.n] {
				if match(row.RouterID) {
					out.Sightings = append(out.Sightings, row)
				}
			}
		case kindWiFi:
			for _, row := range st.WiFi[seg.off : seg.off+seg.n] {
				if match(row.RouterID) {
					out.WiFi = append(out.WiFi, row)
				}
			}
		case kindFlows:
			for _, row := range st.Flows[seg.off : seg.off+seg.n] {
				if match(row.RouterID) {
					out.Flows = append(out.Flows, row)
				}
			}
		case kindThroughput:
			for _, row := range st.Throughput[seg.off : seg.off+seg.n] {
				if match(row.RouterID) {
					out.Throughput = append(out.Throughput, row)
				}
			}
		}
	}
}

// matchedKeysLocked copies out the remembered idempotency keys whose
// router prefix matches. Caller holds all stripe locks. The seen guard
// flattens duplicates: adopted dedupe state (segment-store memtable
// handoff) can re-mark a key in a different stripe than the one its
// router hashes to.
func (s *Sharded) matchedKeysLocked(match func(string) bool) []RouterKey {
	var out []RouterKey
	seen := make(map[string]bool)
	for _, sh := range s.shards {
		for _, k := range sh.applied.Keys() {
			r := KeyRouter(k)
			if match(r) && !seen[k] {
				seen[k] = true
				out = append(out, RouterKey{Router: r, Key: k})
			}
		}
	}
	return out
}

// extractShardRows rebuilds one stripe's slices and segment log without
// the matched rows. Surviving rows keep their segment's sequence stamp;
// offsets re-base onto the rebuilt slices. Segments left empty vanish.
// Caller holds the stripe lock.
func extractShardRows(sh *shard, match func(string) bool) {
	keep := func(router string) bool { return !match(router) }
	ns := &Store{RouterCountry: sh.store.RouterCountry}
	segs := make([]segment, 0, len(sh.segs))
	for _, seg := range sh.segs {
		var off, end int
		st := sh.store
		switch seg.kind {
		case kindUptime:
			off = len(ns.Uptime)
			for _, row := range st.Uptime[seg.off : seg.off+seg.n] {
				if keep(row.RouterID) {
					ns.Uptime = append(ns.Uptime, row)
				}
			}
			end = len(ns.Uptime)
		case kindCapacity:
			off = len(ns.Capacity)
			for _, row := range st.Capacity[seg.off : seg.off+seg.n] {
				if keep(row.RouterID) {
					ns.Capacity = append(ns.Capacity, row)
				}
			}
			end = len(ns.Capacity)
		case kindCounts:
			off = len(ns.Counts)
			for _, row := range st.Counts[seg.off : seg.off+seg.n] {
				if keep(row.RouterID) {
					ns.Counts = append(ns.Counts, row)
				}
			}
			end = len(ns.Counts)
		case kindSightings:
			off = len(ns.Sightings)
			for _, row := range st.Sightings[seg.off : seg.off+seg.n] {
				if keep(row.RouterID) {
					ns.Sightings = append(ns.Sightings, row)
				}
			}
			end = len(ns.Sightings)
		case kindWiFi:
			off = len(ns.WiFi)
			for _, row := range st.WiFi[seg.off : seg.off+seg.n] {
				if keep(row.RouterID) {
					ns.WiFi = append(ns.WiFi, row)
				}
			}
			end = len(ns.WiFi)
		case kindFlows:
			off = len(ns.Flows)
			for _, row := range st.Flows[seg.off : seg.off+seg.n] {
				if keep(row.RouterID) {
					ns.Flows = append(ns.Flows, row)
				}
			}
			end = len(ns.Flows)
		case kindThroughput:
			off = len(ns.Throughput)
			for _, row := range st.Throughput[seg.off : seg.off+seg.n] {
				if keep(row.RouterID) {
					ns.Throughput = append(ns.Throughput, row)
				}
			}
			end = len(ns.Throughput)
		}
		if n := end - off; n > 0 {
			segs = append(segs, segment{kind: seg.kind, off: off, n: n, seq: seg.seq})
		}
	}
	sh.store = ns
	sh.segs = segs
}
