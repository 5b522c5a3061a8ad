package segment_test

import (
	"fmt"
	"testing"

	"natpeek/internal/dataset"
	"natpeek/internal/rng"
	"natpeek/internal/segment"
)

// seedKeyed applies n deterministic rows across routers seg-rt-0..5
// under router-prefixed idempotency keys (the form real uploads use, so
// the store's key index can attribute them to a router), mirroring each
// row into ref so tests can compute the expected extract partition. A
// non-nil flush seals the store every quarter of the rows.
func seedKeyed(t *testing.T, s *segment.Store, ref *dataset.Store, n int, flush func()) {
	t.Helper()
	r := rng.New(11)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("seg-rt-%d", r.Intn(6))
		// Child derivation is pure, so deriving the row stream twice
		// from the same parent state yields identical rows for the
		// store and the reference.
		if !s.Apply(id, fmt.Sprintf("%s:k%d", id, i), func(st *dataset.Store) {
			st.RouterCountry[id] = "US"
			addRandomRow(st, id, i, r.Child("row").ChildN("i", i))
		}) {
			t.Fatalf("seed apply %d deduped", i)
		}
		if ref != nil {
			ref.RouterCountry[id] = "US"
			addRandomRow(ref, id, i, r.Child("row").ChildN("i", i))
		}
		if flush != nil && i > 0 && i%(n/4) == 0 {
			flush()
		}
	}
}

func openRebalanceStore(t *testing.T) *segment.Store {
	t.Helper()
	s, err := segment.Open(segment.Options{
		Dir: t.TempDir(), FlushRows: 1 << 20, NoCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func rcTotal(rc dataset.RowCounts) int {
	return rc.Uptime + rc.Capacity + rc.Counts + rc.Sightings + rc.WiFi + rc.Flows + rc.Throughput
}

// TestExtractReachesSealedSegments is the durable half of the extract
// contract: moved routers leave nothing behind in already-sealed NPS1
// segments, not just the memtable. Rows are spread over three sealed
// segments plus live memtable rows; after the extract, moved and
// surviving sides must together equal the reference partition exactly
// (same rows, same order), and the in-place segment rewrites must be
// reflected in the cached Meta row counts without losing a segment.
func TestExtractReachesSealedSegments(t *testing.T) {
	s := openRebalanceStore(t)
	ref := dataset.NewStore()
	seedKeyed(t, s, ref, 240, func() {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if got := len(s.Segments()); got < 3 {
		t.Fatalf("setup sealed only %d segments", got)
	}
	match := matchSegPrefixes("seg-rt-1", "seg-rt-4")
	wantMoved, wantRest := dataset.SplitRouters(ref, match)

	beforeSegs := s.Segments()
	moved, keys := s.ExtractRouters(match)
	sameRows(t, wantMoved, moved, "moved")
	rest := s.Merge()
	rest.Heartbeats = nil
	sameRows(t, wantRest, rest, "surviving")
	if s.LastFlushError() != "" {
		t.Fatalf("extract recorded an error: %s", s.LastFlushError())
	}
	for _, rk := range keys {
		if !match(rk.Router) {
			t.Fatalf("extracted key %+v for an unmatched router", rk)
		}
	}

	afterSegs := s.Segments()
	if len(afterSegs) != len(beforeSegs) {
		t.Fatalf("extract changed the segment count: %d -> %d", len(beforeSegs), len(afterSegs))
	}
	movedFromSegs := 0
	for i := range afterSegs {
		if afterSegs[i].Seq != beforeSegs[i].Seq {
			t.Fatalf("segment %d changed identity: %v -> %v", i, beforeSegs[i].Seq, afterSegs[i].Seq)
		}
		if afterSegs[i].KeyRows != beforeSegs[i].KeyRows {
			t.Fatalf("segment %v key block shrank: %d -> %d keys",
				afterSegs[i].Seq, beforeSegs[i].KeyRows, afterSegs[i].KeyRows)
		}
		movedFromSegs += rcTotal(beforeSegs[i].Rows) - rcTotal(afterSegs[i].Rows)
	}
	memMoved := rowsTotal(moved) - movedFromSegs
	if movedFromSegs <= 0 || memMoved < 0 {
		t.Fatalf("meta accounting: %d rows left segments, %d total moved", movedFromSegs, rowsTotal(moved))
	}
	if got := rcTotal(s.RowCounts()); got != rowsTotal(wantRest) {
		t.Fatalf("RowCounts after extract = %d, want %d", got, rowsTotal(wantRest))
	}
}

// TestExtractRetainsDedupeAcrossRestart pins the on-disk half of the
// exactly-once hinge: a rewritten segment keeps its key block, so after
// a restart (dedupe index reseeded from disk) a client retry of a MOVED
// upload is still refused at the old home.
func TestExtractRetainsDedupeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 20, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	seedKeyed(t, s, nil, 120, nil)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	moved, keys := s.ExtractRouters(matchSegPrefixes("seg-rt-2"))
	if rowsTotal(moved) == 0 || len(keys) == 0 {
		t.Fatal("nothing extracted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 20, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := rowsTotal(s2.Merge()); got != 120-rowsTotal(moved) {
		t.Fatalf("reopened with %d rows, want %d surviving", got, 120-rowsTotal(moved))
	}
	for _, rk := range keys {
		if s2.Apply(rk.Router, rk.Key, func(st *dataset.Store) {
			st.Uptime = append(st.Uptime, dataset.UptimeReport{RouterID: rk.Router})
		}) {
			t.Fatalf("retry of moved key %q re-applied after restart", rk.Key)
		}
	}
	// Fresh keys for the moved router still land: only its history
	// moved, the router itself may legitimately be re-homed back later.
	if !s2.Apply("seg-rt-2", "seg-rt-2:fresh", func(st *dataset.Store) {
		st.Uptime = append(st.Uptime, dataset.UptimeReport{RouterID: "seg-rt-2"})
	}) {
		t.Fatal("fresh key for a moved router was refused")
	}
}

// TestExtractNoMatchLeavesSegmentsUntouched: a no-op extract must not
// rewrite any segment file (rewrites cost an fsync per segment and the
// drain loop runs extract repeatedly until it drains dry).
func TestExtractNoMatchLeavesSegmentsUntouched(t *testing.T) {
	s := openRebalanceStore(t)
	seedKeyed(t, s, nil, 100, nil)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := s.Segments()
	moved, keys := s.ExtractRouters(func(string) bool { return false })
	if rowsTotal(moved) != 0 || len(keys) != 0 || len(moved.RouterCountry) != 0 {
		t.Fatalf("no-match extract moved %d rows, %d keys, %d roster entries",
			rowsTotal(moved), len(keys), len(moved.RouterCountry))
	}
	after := s.Segments()
	for i := range after {
		if after[i].Rows != before[i].Rows || after[i].KeyRows != before[i].KeyRows {
			t.Fatalf("no-match extract rewrote segment %v", after[i].Seq)
		}
	}
	if got := rowsTotal(s.Merge()); got != 100 {
		t.Fatalf("rows after no-op extract = %d", got)
	}
}

func matchSegPrefixes(prefixes ...string) func(string) bool {
	return func(router string) bool {
		for _, p := range prefixes {
			if router == p {
				return true
			}
		}
		return false
	}
}

func rowsTotal(st *dataset.Store) int {
	return len(st.Uptime) + len(st.Capacity) + len(st.Counts) + len(st.Sightings) +
		len(st.WiFi) + len(st.Flows) + len(st.Throughput)
}
