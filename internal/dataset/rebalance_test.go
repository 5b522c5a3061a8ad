package dataset

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// seedRebalance fills a Sharded with uptime rows for routers rt-0..rt-8
// (keyed, arrival-ordered by the Uptime duration) plus roster entries.
func seedRebalance(t *testing.T, stripes, rows int) *Sharded {
	t.Helper()
	s := NewSharded(stripes)
	for i := 0; i < rows; i++ {
		id := fmt.Sprintf("rt-%d", i%9)
		i := i
		if !s.Apply(id, fmt.Sprintf("%s:k%d", id, i), func(st *Store) {
			st.RouterCountry[id] = "US"
			st.Uptime = append(st.Uptime, UptimeReport{
				RouterID: id, ReportedAt: shardT0, Uptime: time.Duration(i) * time.Second,
			})
		}) {
			t.Fatalf("seed apply %d deduped", i)
		}
	}
	return s
}

func matchPrefixes(prefixes ...string) func(string) bool {
	return func(router string) bool {
		for _, p := range prefixes {
			if router == p {
				return true
			}
		}
		return false
	}
}

func TestKeyRouter(t *testing.T) {
	cases := map[string]string{
		"rt-1:nonce:3": "rt-1",
		"rt-1:":        "rt-1",
		":nonce":       "", // empty prefix is not a router
		"no-colon":     "",
		"":             "",
	}
	for key, want := range cases {
		if got := KeyRouter(key); got != want {
			t.Errorf("KeyRouter(%q) = %q, want %q", key, got, want)
		}
	}
}

// TestExtractRoutersMovesOnlyMatched is the core extract contract:
// matched rows and roster entries leave, unmatched ones stay, and BOTH
// sides keep their global arrival order exactly — the destination
// replays the moved rows in the order they originally arrived, and the
// source's surviving merge looks as if the moved rows never existed.
func TestExtractRoutersMovesOnlyMatched(t *testing.T) {
	const rows = 300
	s := seedRebalance(t, 4, rows)
	match := matchPrefixes("rt-2", "rt-5")

	moved, keys := s.ExtractRouters(match)

	wantMoved := 0
	for i := 0; i < rows; i++ {
		if match(fmt.Sprintf("rt-%d", i%9)) {
			wantMoved++
		}
	}
	if len(moved.Uptime) != wantMoved {
		t.Fatalf("moved %d rows, want %d", len(moved.Uptime), wantMoved)
	}
	if len(keys) != wantMoved {
		t.Fatalf("extracted %d keys, want %d", len(keys), wantMoved)
	}
	for _, rk := range keys {
		if !match(rk.Router) || !strings.HasPrefix(rk.Key, rk.Router+":") {
			t.Fatalf("extracted key %+v does not belong to a matched router", rk)
		}
	}
	if len(moved.RouterCountry) != 2 || moved.RouterCountry["rt-2"] != "US" {
		t.Fatalf("moved roster = %v, want the two matched routers", moved.RouterCountry)
	}

	// Both sides ascend in arrival stamps (the seeded Uptime duration),
	// and together they partition the original sequence.
	assertAscending := func(name string, got []UptimeReport) {
		last := -1 * time.Second
		for _, r := range got {
			if r.Uptime <= last {
				t.Fatalf("%s rows out of arrival order at %v", name, r.Uptime)
			}
			last = r.Uptime
		}
	}
	rest := s.Merge()
	assertAscending("moved", moved.Uptime)
	assertAscending("surviving", rest.Uptime)
	if len(rest.Uptime)+len(moved.Uptime) != rows {
		t.Fatalf("rows vanished: %d moved + %d left != %d", len(moved.Uptime), len(rest.Uptime), rows)
	}
	for _, r := range rest.Uptime {
		if match(r.RouterID) {
			t.Fatalf("matched router %s still has rows at the source", r.RouterID)
		}
	}
	if _, stillThere := rest.RouterCountry["rt-2"]; stillThere {
		t.Fatal("matched roster entry survived the extract")
	}
	if rest.RouterCountry["rt-0"] != "US" {
		t.Fatal("unmatched roster entry lost in the extract")
	}
}

// TestExtractRetainsDedupeKeys pins the design's exactly-once hinge: an
// extracted router's idempotency keys stay in the source's dedupe index,
// so a client retry landing at the old home AFTER the move is flagged
// duplicate instead of re-creating a row that now lives elsewhere.
func TestExtractRetainsDedupeKeys(t *testing.T) {
	s := seedRebalance(t, 2, 90)
	moved, keys := s.ExtractRouters(matchPrefixes("rt-3"))
	if len(moved.Uptime) == 0 || len(keys) == 0 {
		t.Fatal("nothing extracted")
	}
	for _, rk := range keys {
		if s.Apply(rk.Router, rk.Key, func(st *Store) {
			st.Uptime = append(st.Uptime, UptimeReport{RouterID: rk.Router})
		}) {
			t.Fatalf("retry of moved key %q re-applied at the source", rk.Key)
		}
	}
	if got := len(s.Merge().Uptime); got != 90-len(moved.Uptime) {
		t.Fatalf("source rows = %d after retries, want %d", got, 90-len(moved.Uptime))
	}
	// A second extract finds no rows but still reports the retained
	// keys — the transfer engine re-pushes them on retried sessions.
	again, keys2 := s.ExtractRouters(matchPrefixes("rt-3"))
	if len(again.Uptime) != 0 {
		t.Fatalf("second extract found %d rows", len(again.Uptime))
	}
	if len(keys2) != len(keys) {
		t.Fatalf("second extract reports %d keys, want the retained %d", len(keys2), len(keys))
	}
}

// TestSplitRoutersPartitionsEveryKind drives the row-set partition
// helper across all seven measurement kinds plus the roster, checking
// order preservation per slice and that hit+rest is a clean partition.
func TestSplitRoutersPartitionsEveryKind(t *testing.T) {
	st := NewStore()
	ids := []string{"rt-a", "rt-b", "rt-a", "rt-c", "rt-b", "rt-a"}
	for i, id := range ids {
		st.RouterCountry[id] = "US"
		st.Uptime = append(st.Uptime, UptimeReport{RouterID: id, Uptime: time.Duration(i)})
		st.Capacity = append(st.Capacity, CapacityMeasure{RouterID: id})
		st.Counts = append(st.Counts, DeviceCount{RouterID: id, Wired: i})
		st.Sightings = append(st.Sightings, DeviceSighting{RouterID: id, Kind: ConnKind(i % 3)})
		st.WiFi = append(st.WiFi, WiFiScan{RouterID: id, Channel: i})
		st.Flows = append(st.Flows, FlowRecord{RouterID: id, UpBytes: int64(i)})
		st.Throughput = append(st.Throughput, ThroughputSample{RouterID: id, TotalBytes: int64(i)})
	}
	hit, rest := SplitRouters(st, matchPrefixes("rt-a"))
	if len(hit.Uptime) != 3 || len(rest.Uptime) != 3 {
		t.Fatalf("uptime split %d/%d, want 3/3", len(hit.Uptime), len(rest.Uptime))
	}
	if len(hit.Flows) != 3 || len(rest.Throughput) != 3 || len(hit.Sightings) != 3 {
		t.Fatal("a kind was not partitioned")
	}
	if hit.Uptime[0].Uptime != 0 || hit.Uptime[1].Uptime != 2 || hit.Uptime[2].Uptime != 5 {
		t.Fatalf("hit order perturbed: %v", hit.Uptime)
	}
	if rest.Uptime[0].Uptime != 1 || rest.Uptime[1].Uptime != 3 || rest.Uptime[2].Uptime != 4 {
		t.Fatalf("rest order perturbed: %v", rest.Uptime)
	}
	if len(hit.RouterCountry) != 1 || len(rest.RouterCountry) != 2 {
		t.Fatalf("roster split %d/%d", len(hit.RouterCountry), len(rest.RouterCountry))
	}
}

// TestExtractConcurrentWithIngest races extraction against live keyed
// ingest: every row must end up in exactly one place — extracted, or
// still at the source — and the dedupe index must keep every key.
func TestExtractConcurrentWithIngest(t *testing.T) {
	s := NewSharded(4)
	const writers, perWriter = 4, 200
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			applied := 0
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("rt-%d", i%7)
				key := fmt.Sprintf("%s:w%d:%d", id, w, i)
				if s.Apply(id, key, func(st *Store) {
					st.Uptime = append(st.Uptime, UptimeReport{RouterID: id})
				}) {
					applied++
				}
			}
			done <- applied
		}(w)
	}
	var movedRows int
	match := matchPrefixes("rt-0", "rt-3", "rt-6")
	for i := 0; i < 50; i++ {
		moved, _ := s.ExtractRouters(match)
		movedRows += len(moved.Uptime)
	}
	applied := 0
	for w := 0; w < writers; w++ {
		applied += <-done
	}
	final, _ := s.ExtractRouters(match)
	movedRows += len(final.Uptime)
	if got := movedRows + len(s.Merge().Uptime); got != applied {
		t.Fatalf("rows lost or duplicated under concurrent extract: %d accounted, %d applied", got, applied)
	}
}
