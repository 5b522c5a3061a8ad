package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// mixedBatch is a batch spanning several routers and placement groups:
// typed items of every shape, a KindRaw registration routed by sniffing
// its body, traced and untraced items, and an unkeyed one.
func mixedBatch() []wire.Item {
	at := time.Date(2013, 4, 1, 12, 0, 0, 7, time.UTC)
	traced := 0
	tr := func(router string) *trace.Wire { // every trace distinct, so aliasing one shows
		traced++
		spans := []trace.Span{
			{Name: "gateway.export", Start: at, End: at.Add(time.Duration(traced) * time.Second),
				Attrs: []trace.Attr{{K: "router", V: router}}},
		}
		spans = append(spans, trace.Span{Name: "spool.send", Start: at.Add(time.Duration(traced) * time.Minute)})
		return &trace.Wire{Router: router, Spans: spans}
	}
	dev := mac.Addr{2, 0, 0, 1, 2, 3}
	items := []wire.Item{
		{Endpoint: "/v1/register", Key: "", Payload: wire.Payload{Kind: wire.KindRaw,
			Raw: []byte(`{"router_id":"rt-mix-3","country":"US"}`)}},
		uptimeItem("rt-mix-1", 1),
		{Endpoint: "/v1/wifi", Key: "rt-mix-2:k:1", Trace: tr("rt-mix-2"), Payload: wire.Payload{Kind: wire.KindWiFi,
			WiFi: []dataset.WiFiScan{{RouterID: "rt-mix-2", At: at, Band: "5GHz", Channel: 36}, {RouterID: "rt-mix-2", Band: "2.4GHz"}}}},
		{Endpoint: "/v1/devices", Key: "rt-mix-3:k:1", Payload: wire.Payload{Kind: wire.KindDevices,
			Count:     dataset.DeviceCount{RouterID: "rt-mix-3", At: at, Wired: 2},
			Sightings: []dataset.DeviceSighting{{RouterID: "rt-mix-3", At: at, Device: dev}}}},
		{Endpoint: "/v1/traffic/flows", Key: "rt-mix-4:k:1", Trace: tr("rt-mix-4"), Payload: wire.Payload{Kind: wire.KindFlows,
			Flows: []dataset.FlowRecord{{RouterID: "rt-mix-4", Device: dev, Domain: "a.example", Proto: "tcp", First: at, Last: at, UpBytes: 5}}}},
		{Endpoint: "/v1/future", Key: "rt-mix-5:k:1", Trace: tr("rt-mix-5"), Payload: wire.Payload{Kind: wire.KindRaw, Raw: []byte(`{"x":1}`)}},
	}
	for i := 0; i < 6; i++ {
		it := uptimeItem(fmt.Sprintf("rt-mix-%d", 6+i), i)
		if i%2 == 0 {
			it.Trace = tr(it.Payload.Uptime.RouterID)
		}
		items = append(items, it)
	}
	return items
}

// oldForward is the forwarding path the front used before it moved item
// bytes, kept as the oracle: decode every item and deep-copy its rows
// (JSON items: transcode), group by replica set, append the front.route
// span, and encode each group's rows again. routeEnd is the route
// span's end, read back from the path under test.
func oldForward(t *testing.T, f *Front, contentType string, body []byte, start, routeEnd time.Time) [][]byte {
	t.Helper()
	var items []wire.Item
	if contentType == wire.ContentTypeBinary {
		var dec wire.Decoder
		var it wire.Item
		if err := dec.Reset(body); err != nil {
			t.Fatal(err)
		}
		for dec.Next(&it) == nil {
			items = append(items, it.Clone())
		}
	} else {
		var jitems []collector.BatchItem
		if err := json.Unmarshal(body, &jitems); err != nil {
			t.Fatal(err)
		}
		for _, ji := range jitems {
			items = append(items, wire.Item{Endpoint: ji.Endpoint, Key: ji.Key,
				Payload: wire.PayloadFromJSON(ji.Endpoint, ji.Body), Trace: ji.Trace})
		}
	}
	ring := f.ms.ring()
	n := min(f.cfg.Replication, ring.Len())
	byKey := make(map[string]int)
	var groups [][]wire.Item
	for _, it := range items {
		router := routerOfItem(&it)
		placement := ring.Lookup(router, n)
		gk := strings.Join(placement, "\x00")
		gi, ok := byKey[gk]
		if !ok {
			gi = len(groups)
			byKey[gk] = gi
			groups = append(groups, nil)
		}
		if it.Key != "" {
			if it.Trace == nil {
				it.Trace = &trace.Wire{Router: router}
			}
			it.Trace.Spans = append(it.Trace.Spans, trace.Span{
				Name: "front.route", Start: start, End: routeEnd, Status: trace.StatusOK,
				Attrs: []trace.Attr{
					{K: "front", V: f.cfg.ID},
					{K: "node", V: placement[0]},
					{K: "replicas", V: fmt.Sprint(len(placement) - 1)},
				},
			})
		}
		groups[gi] = append(groups[gi], it)
	}
	var out [][]byte
	for _, g := range groups {
		out = append(out, wire.AppendBatch(nil, g))
	}
	return out
}

// routeEndOf returns the end of the first front.route span in batches.
func routeEndOf(t *testing.T, batches [][]byte) time.Time {
	t.Helper()
	var dec wire.Decoder
	var it wire.Item
	for _, b := range batches {
		if err := dec.Reset(b); err != nil {
			t.Fatal(err)
		}
		for dec.Next(&it) == nil {
			if it.Trace == nil {
				continue
			}
			for _, sp := range it.Trace.Spans {
				if sp.Name == "front.route" {
					return sp.End
				}
			}
		}
	}
	t.Fatal("no front.route span in the forwarded batches")
	return time.Time{}
}

// TestFrontForwardsItemBytes pins the front's byte-forwarding path
// against the decode → Clone → re-encode path it replaced: for a mixed
// batch in either wire form, every forwarded sub-batch is byte for byte
// what the old path produced.
func TestFrontForwardsItemBytes(t *testing.T) {
	tc := startTestCluster(t, 3, 2)
	f := tc.front
	items := mixedBatch()
	jitems := make([]collector.BatchItem, len(items))
	for i, it := range items {
		body, err := it.Payload.JSONBody()
		if err != nil {
			t.Fatal(err)
		}
		jitems[i] = collector.BatchItem{Endpoint: it.Endpoint, Key: it.Key, Body: body, Trace: it.Trace}
	}
	jsonBody, err := json.Marshal(jitems)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		contentType string
		body        []byte
	}{
		{wire.ContentTypeBinary, wire.AppendBatch(nil, items)},
		{"application/json", jsonBody},
	} {
		start := time.Now()
		routed, err := decodeBatchItems(in.contentType, in.body)
		if err != nil {
			t.Fatal(err)
		}
		groups, fail := f.groupItems(routed, start)
		if fail != nil {
			t.Fatalf("%s: grouping failed: %s", in.contentType, fail.msg)
		}
		if len(groups) < 2 {
			t.Fatalf("%s: batch fell into %d placement group, want several", in.contentType, len(groups))
		}
		var got [][]byte
		for _, g := range groups {
			got = append(got, appendRouted(nil, g.items))
		}
		want := oldForward(t, f, in.contentType, in.body, start, routeEndOf(t, got))
		if len(got) != len(want) {
			t.Fatalf("%s: %d sub-batches, want %d", in.contentType, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: sub-batch %d differs from decode+Clone+re-encode\n got %x\nwant %x",
					in.contentType, i, got[i], want[i])
			}
		}
	}
}

// TestFrontRefusesBatchWithCorruptItem: the front decodes every row
// before it forwards anything, so a batch whose middle item has a
// corrupt row block is answered 400 and no node receives any of it.
func TestFrontRefusesBatchWithCorruptItem(t *testing.T) {
	tc := startTestCluster(t, 3, 2)
	items := []wire.Item{uptimeItem("rt-bad-1", 1), uptimeItem("rt-bad-2", 2), uptimeItem("rt-bad-3", 3)}
	section := wire.AppendPayload(nil, &items[1].Payload)
	section[0] = 5 // the router column's first ref names a dictionary entry that does not exist
	items[1].Encoded = section
	body := wire.AppendBatch(nil, items)

	resp, err := http.Post(frontURL(tc)+"/v1/batch", wire.ContentTypeBinary, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, msg)
	}
	if got := totalRows(tc); got != 0 {
		t.Fatalf("nodes hold %d rows after a refused batch", got)
	}
	for _, nd := range tc.nodes {
		if frames, _, _ := nd.JournalStats(); frames != 0 {
			t.Fatalf("node %s journaled %d frames from a refused batch", nd.ID(), frames)
		}
	}
}

// TestReadBodyClampsForgedContentLength: request bodies are read into
// one allocation sized from Content-Length, and a forged header cannot
// make that allocation larger than the handler's body cap.
func TestReadBodyClampsForgedContentLength(t *testing.T) {
	for _, limit := range []int64{frontMaxUpload, ctrlMaxBody} {
		r := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader("tiny body"))
		r.ContentLength = 1 << 30
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		body, err := readBody(httptest.NewRecorder(), r, limit)
		runtime.ReadMemStats(&m1)
		if err != nil || string(body) != "tiny body" {
			t.Fatalf("read %q, %v", body, err)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > uint64(limit)+64<<10 {
			t.Fatalf("forged 1 GiB Content-Length allocated %d bytes, cap %d", got, limit)
		}
	}
	honest := strings.Repeat("x", 1000)
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(honest))
	body, err := readBody(httptest.NewRecorder(), r, frontMaxUpload)
	if err != nil || string(body) != honest || cap(body) > len(honest)+1 {
		t.Fatalf("honest body: len %d cap %d, %v", len(body), cap(body), err)
	}
}

// TestRestoreItemsRestoresOnlyUndelivered: a failed rebalance handoff
// returns the routed items it did not deliver, and the source restores
// exactly the typed rows behind those — no more (they would duplicate
// rows the destination holds), no fewer (they would be lost).
func TestRestoreItemsRestoresOnlyUndelivered(t *testing.T) {
	tc := startTestCluster(t, 1, 1)
	nd := tc.nodes[0]
	at := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	moved := dataset.NewStore()
	moved.RouterCountry["rt-r"] = "US"
	for i := 0; i < 3; i++ {
		moved.Uptime = append(moved.Uptime, dataset.UptimeReport{RouterID: "rt-r", ReportedAt: at.Add(time.Duration(i) * time.Hour)})
	}
	moved.WiFi = []dataset.WiFiScan{{RouterID: "rt-r", At: at, Band: "5GHz"}, {RouterID: "rt-r", At: at, Band: "2.4GHz"}}
	typed := transferItems("src", 1, moved)
	routed := routeTransfer(typed)
	if len(routed) != 5 { // register, 3 uptime, 1 wifi run
		t.Fatalf("%d transfer items, want 5", len(routed))
	}
	nd.restoreItems(typed, []routedItem{routed[2], routed[4]})
	st := nd.Store()
	if len(st.Uptime) != 1 || st.Uptime[0] != moved.Uptime[1] || len(st.WiFi) != 2 || len(st.RouterCountry) != 0 {
		t.Fatalf("restored uptime %v, wifi %d rows, roster %v; want uptime[1] and both scans only",
			st.Uptime, len(st.WiFi), st.RouterCountry)
	}
}
