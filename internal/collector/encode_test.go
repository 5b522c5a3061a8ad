package collector

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/spool"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// captureTransport answers every request in-process — registration with
// the binary advertisement, batches with an all-applied result — and
// keeps the /v1/batch request bodies.
type captureTransport struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (c *captureTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return nil, err
	}
	resp := &http.Response{StatusCode: http.StatusNoContent, Header: http.Header{},
		Body: io.NopCloser(strings.NewReader("")), Request: r}
	resp.Header.Set("Accept-Post", wire.ContentTypeBinary)
	if r.URL.Path == "/v1/batch" {
		c.mu.Lock()
		c.bodies = append(c.bodies, body)
		c.mu.Unlock()
		resp.StatusCode = http.StatusOK
		resp.Body = io.NopCloser(strings.NewReader(`{"applied":1}`))
	}
	return resp, nil
}

// TestSinkBodiesMatchJSONTranscode is the byte-identity oracle for the
// encode-once path: for every Sink method, traced and untraced, the
// NPB2 body the client posts equals AppendBatch over the JSON transcode
// of the same value — what the client sent before it encoded payload
// sections from typed rows — with the same keys and spans. The cases
// cover zero times, zoned times, empty censuses and empty slices, and
// the two payloads JSON cannot carry exactly (invalid UTF-8, a zone
// offset with seconds), which must take the transcode themselves.
func TestSinkBodiesMatchJSONTranscode(t *testing.T) {
	ist := time.FixedZone("IST", 5*3600+1800)
	lmt := time.FixedZone("LMT", 3600+30)
	at := time.Date(2013, 4, 1, 12, 30, 15, 123456789, ist)
	dev := mac.Addr{0x00, 0x11, 0x22, 0xaa, 0xbb, 0xcc}
	sightings := []dataset.DeviceSighting{
		{RouterID: "rt-enc", At: at, Device: dev, Kind: dataset.Wireless5},
		{RouterID: "rt-enc", Device: dev}, // zero time
	}
	flows := []dataset.FlowRecord{
		{RouterID: "rt-enc", Device: dev, Domain: "example.com", Proto: "tcp", First: at,
			Last: at.Add(time.Minute).UTC(), UpBytes: 1 << 40, DownBytes: 7, UpPkts: 3, DownPkts: 4, Conns: 1},
		{RouterID: "rt-enc", Domain: "", Proto: "udp"}, // zero times
	}
	cases := []struct {
		name     string
		endpoint string
		v        any // what the Sink call marshals to JSON
		call     func(c *Client)
	}{
		{"uptime", "/v1/uptime", dataset.UptimeReport{RouterID: "rt-enc", ReportedAt: t0, Uptime: time.Hour},
			func(c *Client) {
				c.UptimeReport(dataset.UptimeReport{RouterID: "rt-enc", ReportedAt: t0, Uptime: time.Hour})
			}},
		{"uptime-zero", "/v1/uptime", dataset.UptimeReport{},
			func(c *Client) { c.UptimeReport(dataset.UptimeReport{}) }},
		{"capacity-zoned", "/v1/capacity", dataset.CapacityMeasure{RouterID: "rt-enc", MeasuredAt: at, UpBps: 1.5e6, DownBps: -0.25},
			func(c *Client) {
				c.CapacityMeasure(dataset.CapacityMeasure{RouterID: "rt-enc", MeasuredAt: at, UpBps: 1.5e6, DownBps: -0.25})
			}},
		{"census", "/v1/devices", censusUpload{Count: dataset.DeviceCount{RouterID: "rt-enc", At: at, Wired: 1, W24: 2, W5: 3}, Sightings: sightings},
			func(c *Client) {
				c.DeviceCensus(dataset.DeviceCount{RouterID: "rt-enc", At: at, Wired: 1, W24: 2, W5: 3}, sightings)
			}},
		{"census-empty", "/v1/devices", censusUpload{},
			func(c *Client) { c.DeviceCensus(dataset.DeviceCount{}, nil) }},
		{"census-empty-slice", "/v1/devices", censusUpload{Sightings: []dataset.DeviceSighting{}},
			func(c *Client) { c.DeviceCensus(dataset.DeviceCount{}, []dataset.DeviceSighting{}) }},
		{"wifi", "/v1/wifi", []dataset.WiFiScan{{RouterID: "rt-enc", At: at, Band: "5GHz", Channel: 36, VisibleAPs: 4, Clients: 1}, {RouterID: "rt-enc", Band: "2.4GHz"}},
			func(c *Client) {
				c.WiFiScan([]dataset.WiFiScan{{RouterID: "rt-enc", At: at, Band: "5GHz", Channel: 36, VisibleAPs: 4, Clients: 1}, {RouterID: "rt-enc", Band: "2.4GHz"}})
			}},
		{"wifi-nil", "/v1/wifi", []dataset.WiFiScan(nil), func(c *Client) { c.WiFiScan(nil) }},
		{"wifi-empty", "/v1/wifi", []dataset.WiFiScan{}, func(c *Client) { c.WiFiScan([]dataset.WiFiScan{}) }},
		{"flows", "/v1/traffic/flows", flows, func(c *Client) { c.TrafficFlows(flows) }},
		{"throughput", "/v1/traffic/throughput", []dataset.ThroughputSample{{RouterID: "rt-enc", Minute: at, Dir: "up", PeakBps: 3e5, TotalBytes: 99}},
			func(c *Client) {
				c.TrafficThroughput([]dataset.ThroughputSample{{RouterID: "rt-enc", Minute: at, Dir: "up", PeakBps: 3e5, TotalBytes: 99}})
			}},
		{"invalid-utf8", "/v1/uptime", dataset.UptimeReport{RouterID: "rt-\xff", ReportedAt: t0},
			func(c *Client) { c.UptimeReport(dataset.UptimeReport{RouterID: "rt-\xff", ReportedAt: t0}) }},
		{"sub-minute-zone", "/v1/uptime", dataset.UptimeReport{RouterID: "rt-enc", ReportedAt: time.Date(1890, 1, 1, 0, 0, 0, 0, lmt)},
			func(c *Client) {
				c.UptimeReport(dataset.UptimeReport{RouterID: "rt-enc", ReportedAt: time.Date(1890, 1, 1, 0, 0, 0, 0, lmt)})
			}},
	}
	defer trace.SetEnabled(true)
	for _, traced := range []bool{false, true} {
		trace.SetEnabled(traced)
		for _, tc := range cases {
			ct := &captureTransport{}
			c, err := NewClient("rt-enc", "US", "127.0.0.1:9", "127.0.0.1:9",
				WithTransport(ct), WithWireFormat(WireBinary))
			if err != nil {
				t.Fatal(err)
			}
			if traced {
				c.BeginExportWindow("test", t0)
			}
			tc.call(c)
			c.EndExportWindow(t0)
			flush(t, c)
			c.Close()

			if len(ct.bodies) != 1 {
				t.Fatalf("%s traced=%v: %d batches posted, want 1", tc.name, traced, len(ct.bodies))
			}
			got := ct.bodies[0]
			var dec wire.Decoder
			var it wire.Item
			if err := dec.Reset(got); err != nil || dec.Len() != 1 {
				t.Fatalf("%s traced=%v: posted batch: %v, %d items", tc.name, traced, err, dec.Len())
			}
			if err := dec.Next(&it); err != nil {
				t.Fatalf("%s traced=%v: %v", tc.name, traced, err)
			}
			if it.Payload.Kind != wire.KindFor(tc.endpoint) {
				t.Fatalf("%s traced=%v: posted kind %d, want %d", tc.name, traced, it.Payload.Kind, wire.KindFor(tc.endpoint))
			}
			if (it.Trace != nil) != traced {
				t.Fatalf("%s traced=%v: posted trace %+v", tc.name, traced, it.Trace)
			}
			body, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			want := wire.AppendBatch(nil, []wire.Item{{Endpoint: tc.endpoint, Key: it.Key,
				Payload: wire.PayloadFromJSON(tc.endpoint, body), Trace: it.Trace}})
			if !bytes.Equal(got, want) {
				t.Errorf("%s traced=%v: posted body differs from the JSON transcode\n got %x\nwant %x",
					tc.name, traced, got, want)
			}
		}
	}
}

// TestEncodeBatchCopiesEncodedSections pins where each binary item's
// payload comes from: an item with a payload section ships it as it is
// — its JSON body is not transcoded again — and only an item without
// one, as recovered from the journal, is transcoded from its body.
func TestEncodeBatchCopiesEncodedSections(t *testing.T) {
	bodyRow := dataset.UptimeReport{RouterID: "rt-body", ReportedAt: t0}
	sectionRow := dataset.UptimeReport{RouterID: "rt-section", ReportedAt: t0.Add(time.Hour)}
	body, err := json.Marshal(bodyRow)
	if err != nil {
		t.Fatal(err)
	}
	section := wire.AppendPayload(nil, &wire.Payload{Kind: wire.KindUptime, Uptime: sectionRow})
	items := []spool.Item{
		{Endpoint: "/v1/uptime", Key: "k1", Body: body, Encoded: section},
		{Endpoint: "/v1/uptime", Key: "k2", Body: body},
	}
	payload := []BatchItem{
		{Endpoint: "/v1/uptime", Key: "k1", Body: body},
		{Endpoint: "/v1/uptime", Key: "k2", Body: body},
	}
	c := &Client{wireMode: WireBinary}
	enc, ct, err := c.encodeBatch(items, payload)
	if err != nil || ct != wire.ContentTypeBinary {
		t.Fatalf("encodeBatch: %q, %v", ct, err)
	}
	var dec wire.Decoder
	var it wire.Item
	if err := dec.Reset(enc); err != nil {
		t.Fatal(err)
	}
	for _, want := range []dataset.UptimeReport{sectionRow, bodyRow} {
		if err := dec.Next(&it); err != nil {
			t.Fatal(err)
		}
		if it.Payload.Uptime != want {
			t.Fatalf("item %s carries %+v, want %+v", it.Key, it.Payload.Uptime, want)
		}
	}
}
