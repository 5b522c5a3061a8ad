package collector

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/spool"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

func postBatch(t *testing.T, srv *Server, contentType string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/batch", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(msg)
}

func uptimeBatchJSON(t *testing.T, keys ...string) []byte {
	t.Helper()
	var items []BatchItem
	for i, k := range keys {
		body, err := json.Marshal(dataset.UptimeReport{
			RouterID: "router-1", ReportedAt: t0.Add(time.Duration(i) * time.Minute), Uptime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchItem{Endpoint: "/v1/uptime", Key: k, Body: body})
	}
	b, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchRejectsTrailingGarbage is the regression for the old
// json.NewDecoder(r.Body).Decode(&items) envelope decode, which read the
// first JSON value and silently ignored everything after it — a request
// whose tail was a second batch would be acknowledged with the tail
// unapplied. Both encodings must reject trailing bytes with 400.
func TestBatchRejectsTrailingGarbage(t *testing.T) {
	srv, _ := startPair(t)

	body := append(uptimeBatchJSON(t, "tg-json-1"), `[{"endpoint":"/v1/uptime","key":"tg-json-lost","body":{}}]`...)
	resp, msg := postBatch(t, srv, "application/json", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("JSON batch with trailing bytes: status %d (%s), want 400", resp.StatusCode, msg)
	}

	bin := wire.AppendBatch(nil, []wire.Item{{
		Endpoint: "/v1/uptime", Key: "tg-bin-1",
		Payload: wire.Payload{Kind: wire.KindUptime,
			Uptime: dataset.UptimeReport{RouterID: "router-1", ReportedAt: t0}},
	}})
	resp, msg = postBatch(t, srv, wire.ContentTypeBinary, append(bin, "garbage"...))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("binary batch with trailing bytes: status %d (%s), want 400", resp.StatusCode, msg)
	}
	if !strings.Contains(msg, "trailing") {
		t.Fatalf("binary rejection should name the trailing bytes: %q", msg)
	}
}

// TestWhitelistAddRejectsTrailingGarbage covers the other NewDecoder
// call site found in the audit (webui.handleWhitelistAdd) — exercised
// through the webui package's own tests; here we pin the collector's
// single-row endpoints, which already read-then-Unmarshal.
func TestDirectEndpointRejectsTrailingGarbage(t *testing.T) {
	srv, _ := startPair(t)
	body := `{"RouterID":"router-1","ReportedAt":"2013-04-01T00:00:00Z"}{"RouterID":"x"}`
	resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/uptime", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestOversizedBodyGets413 is the regression for oversized bodies
// surfacing as generic 400 decode errors: the MaxBytesReader bound must
// come back as 413 naming the limit, counted under the dedicated
// oversized metric rather than decode_errors.
func TestOversizedBodyGets413(t *testing.T) {
	srv, _ := startPair(t)
	overBefore := srv.mOversized.With("/v1/batch").Value()
	decodeBefore := srv.mDecodeErrs.With("/v1/batch").Value()

	huge := bytes.Repeat([]byte("x"), maxUploadBytes+1)
	resp, msg := postBatch(t, srv, "application/json", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, msg)
	}
	if want := fmt.Sprintf("%d-byte limit", maxUploadBytes); !strings.Contains(msg, want) {
		t.Fatalf("413 body %q does not name the limit %q", msg, want)
	}
	if got := srv.mOversized.With("/v1/batch").Value() - overBefore; got != 1 {
		t.Fatalf("oversized counter advanced by %d, want 1", got)
	}
	if got := srv.mDecodeErrs.With("/v1/batch").Value() - decodeBefore; got != 0 {
		t.Fatalf("decode_errors advanced by %d for an oversized body, want 0", got)
	}
}

// TestGzipBombGets413 bounds the decompressed size too: a tiny request
// that inflates past the upload limit is refused like an oversized
// plain body, before the decoded bytes can pile up.
func TestGzipBombGets413(t *testing.T) {
	srv, _ := startPair(t)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(bytes.Repeat([]byte("0"), maxUploadBytes+2)); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	req, err := http.NewRequest(http.MethodPost, "http://"+srv.HTTPAddr()+"/v1/batch", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, msg)
	}
}

// TestReadAllIntoClampsForgedSizeHint is the regression for sizing the
// pooled body buffer straight from Content-Length: the header is
// attacker-controlled and nobody has read a byte against it yet, so a
// forged multi-GiB value must not become allocation capacity — across
// 256 admitted requests that pre-allocation alone could exhaust memory
// before MaxBytesReader ever rejected the bodies.
func TestReadAllIntoClampsForgedSizeHint(t *testing.T) {
	buf, err := ReadAllInto(nil, strings.NewReader("tiny body"), 1<<40, maxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "tiny body" {
		t.Fatalf("read %q, want %q", buf, "tiny body")
	}
	if cap(buf) > maxUploadBytes+2 {
		t.Fatalf("forged 1 TiB size hint grew the buffer to cap %d, want ≤ %d", cap(buf), maxUploadBytes+2)
	}
}

// TestBatchReportsMalformedItems pins satellite 3: undecodable items are
// acknowledged (2xx, not retried) but reported per item in
// BatchResult.Failed, and the client's sendBatch surfaces them as the
// spool.Result that triggers dead-lettering.
func TestBatchReportsMalformedItems(t *testing.T) {
	srv, cli := startPair(t)
	good, err := json.Marshal(dataset.UptimeReport{RouterID: "router-1", ReportedAt: t0})
	if err != nil {
		t.Fatal(err)
	}
	items := []spool.Item{
		{Endpoint: "/v1/uptime", Key: "mf-good", Body: good, Seq: 1},
		{Endpoint: "/v1/uptime", Key: "mf-bad", Body: []byte(`{"RouterID":42}`), Seq: 2},
		{Endpoint: "/v1/nope", Key: "mf-unknown", Body: []byte(`{}`), Seq: 3},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := cli.sendBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Malformed) != 2 {
		t.Fatalf("malformed = %+v, want 2 entries", res.Malformed)
	}
	byKey := map[string]string{}
	for _, e := range res.Malformed {
		byKey[e.Key] = e.Reason
	}
	if !strings.Contains(byKey["mf-bad"], "decode error") {
		t.Fatalf("mf-bad reason = %q", byKey["mf-bad"])
	}
	if byKey["mf-unknown"] != "unknown endpoint" {
		t.Fatalf("mf-unknown reason = %q", byKey["mf-unknown"])
	}
	if n := len(srv.Store().Uptime); n != 1 {
		t.Fatalf("store has %d uptime rows, want 1 (the good item)", n)
	}
}

// wireModeClient builds a second client against srv with an explicit
// wire mode, registered under its own router ID.
func wireModeClient(t *testing.T, srv *Server, router string, opts ...Option) *Client {
	t.Helper()
	cli, err := NewClient(router, "US", srv.UDPAddr(), srv.HTTPAddr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func driveSink(cli *Client, router string) {
	cli.UptimeReport(dataset.UptimeReport{RouterID: router, ReportedAt: t0, Uptime: 36 * time.Hour})
	cli.CapacityMeasure(dataset.CapacityMeasure{RouterID: router, MeasuredAt: t0, UpBps: 1e6, DownBps: 16e6})
	cli.DeviceCensus(
		dataset.DeviceCount{RouterID: router, At: t0, Wired: 1, W24: 2, W5: 1},
		[]dataset.DeviceSighting{{RouterID: router, At: t0, Device: mac.MustParse("a4:b1:97:01:02:03"), Kind: dataset.Wireless24}})
	cli.WiFiScan([]dataset.WiFiScan{{RouterID: router, At: t0, Band: "2.4GHz", Channel: 6, VisibleAPs: 9, Clients: 2}})
	cli.TrafficFlows([]dataset.FlowRecord{{
		RouterID: router, Device: mac.MustParse("a4:b1:97:01:02:03"),
		Domain: "netflix.com", Proto: "tcp", First: t0, Last: t0.Add(90 * time.Second),
		UpBytes: 1 << 20, DownBytes: 50 << 20, UpPkts: 900, DownPkts: 36000, Conns: 2}})
	cli.TrafficThroughput([]dataset.ThroughputSample{{
		RouterID: router, Minute: t0, Dir: "down", PeakBps: 4.2e6, TotalBytes: 9 << 20}})
}

// normalizeRows renders a store's rows as JSON with router IDs unified,
// so stores fed by different clients compare structurally.
func normalizeRows(t *testing.T, st *dataset.Store, router string) string {
	t.Helper()
	b, err := json.Marshal(struct {
		U []dataset.UptimeReport
		C []dataset.CapacityMeasure
		N []dataset.DeviceCount
		S []dataset.DeviceSighting
		W []dataset.WiFiScan
		F []dataset.FlowRecord
		T []dataset.ThroughputSample
	}{st.Uptime, st.Capacity, st.Counts, st.Sightings, st.WiFi, st.Flows, st.Throughput})
	if err != nil {
		t.Fatal(err)
	}
	return strings.ReplaceAll(string(b), router, "ROUTER")
}

// TestBinaryBatchMatchesJSON drives the same sink calls through a
// JSON-pinned client and a binary-pinned client against two servers and
// requires the resulting stores to be row-for-row identical — the
// encoding must be invisible to the dataset.
func TestBinaryBatchMatchesJSON(t *testing.T) {
	stores := map[WireMode]string{}
	for mode, name := range map[WireMode]string{WireJSON: "json-router", WireBinary: "bin-router"} {
		srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cli := wireModeClient(t, srv, name, WithWireFormat(mode))
		driveSink(cli, name)
		flush(t, cli)
		stores[mode] = normalizeRows(t, srv.Store(), name)
	}
	if stores[WireJSON] != stores[WireBinary] {
		t.Fatalf("stores differ:\njson   %s\nbinary %s", stores[WireJSON], stores[WireBinary])
	}
}

// TestWireNegotiation pins the Accept-Post handshake: an auto client
// flips to binary against an advertising server, stays on JSON when the
// advertisement is off, and the rows land either way. The advertised
// media type names the format version: a client built for the earlier
// format matched "application/x-natpeek-batch" with strings.Contains,
// and must now fall back to JSON instead of posting bytes that 400.
func TestWireNegotiation(t *testing.T) {
	srv, cli := startPair(t)
	if !cli.binary.Load() {
		t.Fatal("auto client did not pick up the binary advertisement")
	}
	resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/register", "application/json",
		strings.NewReader(`{"router_id":"probe","country":"US"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ap := resp.Header.Get("Accept-Post"); !strings.Contains(ap, wire.ContentTypeBinary) ||
		strings.Contains(ap, "application/x-natpeek-batch") {
		t.Fatalf("Accept-Post = %q: want %q and no earlier-format media type", ap, wire.ContentTypeBinary)
	}
	itemsBefore := srv.mItems.With("/v1/uptime").Value()
	cli.UptimeReport(dataset.UptimeReport{RouterID: "router-1", ReportedAt: t0})
	flush(t, cli)
	if got := srv.mItems.With("/v1/uptime").Value() - itemsBefore; got != 1 {
		t.Fatalf("binary-path items = %d, want 1", got)
	}

	srv.SetAdvertiseBinary(false)
	legacy := wireModeClient(t, srv, "legacy-router")
	if legacy.binary.Load() {
		t.Fatal("client negotiated binary against a non-advertising server")
	}
	legacy.UptimeReport(dataset.UptimeReport{RouterID: "legacy-router", ReportedAt: t0})
	flush(t, legacy)
	if n := len(srv.Store().Uptime); n != 2 {
		t.Fatalf("uptime rows = %d, want 2", n)
	}
}

// TestGzipUploads runs both encodings compressed end to end.
func TestGzipUploads(t *testing.T) {
	for mode, name := range map[WireMode]string{WireJSON: "gz-json", WireBinary: "gz-bin"} {
		srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cli := wireModeClient(t, srv, name, WithWireFormat(mode), WithGzip(true))
		driveSink(cli, name)
		flush(t, cli)
		st := srv.Store()
		if len(st.Uptime) != 1 || len(st.Flows) != 1 || len(st.Throughput) != 1 {
			t.Fatalf("%s: rows missing after gzip upload: %d/%d/%d", name,
				len(st.Uptime), len(st.Flows), len(st.Throughput))
		}
	}
}

// TestBinaryBatchPreservesTraces runs a traced binary upload end to end
// and requires the server-assembled trace to contain the client's spans
// (queue wait and send attempt) — trace spans must survive the binary
// encoding byte-for-byte.
func TestBinaryBatchPreservesTraces(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetTraceSampling(1.0, time.Hour) // keep everything
	cli := wireModeClient(t, srv, "traced-router", WithWireFormat(WireBinary))
	cli.UptimeReport(dataset.UptimeReport{RouterID: "traced-router", ReportedAt: t0})
	flush(t, cli)

	traces := srv.TraceRecorder().Traces(trace.Filter{Router: "traced-router"})
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	var names []string
	for _, sp := range traces[0].Spans {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"spool.queued", "spool.send", "collector.decode", "collector.apply"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing %q span: %v", want, names)
		}
	}
	if traces[0].Router != "traced-router" {
		t.Fatalf("trace router = %q", traces[0].Router)
	}
}
