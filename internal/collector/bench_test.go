package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// benchBatchBody builds one /v1/batch payload: `items` uptime uploads
// spread across `routers` routers, with empty idempotency keys so the
// same body can be replayed every iteration (an empty key is always
// fresh — dedupe applies only to keyed uploads).
func benchBatchBody(b *testing.B, routers, items int) []byte {
	b.Helper()
	batch := make([]BatchItem, items)
	for i := range batch {
		body, err := json.Marshal(uptimeRow(fmt.Sprintf("bench-%03d", i%routers), time.Duration(i)*time.Second))
		if err != nil {
			b.Fatal(err)
		}
		batch[i] = BatchItem{Endpoint: "/v1/uptime", Body: body}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func uptimeRow(router string, uptime time.Duration) any {
	return map[string]any{"RouterID": router, "ReportedAt": t0, "Uptime": uptime}
}

// BenchmarkIngestBatch measures the collector's ingest path — batch
// envelope decode, per-item payload decode, and sharded store apply —
// without sockets. This is the per-request server cost a fleet's POSTs
// pay; BENCH_*.json tracks it as rows/s.
func BenchmarkIngestBatch(b *testing.B) {
	const routers, items = 16, 32
	for _, g := range []int{1, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			body := benchBatchBody(b, routers, items)

			var wg sync.WaitGroup
			per := b.N / g
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
						rec := httptest.NewRecorder()
						srv.handleBatch(rec, req)
						if rec.Code != http.StatusOK {
							b.Errorf("status %d", rec.Code)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)*items/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkIngestBatchWire compares the two batch encodings on the same
// logical payload — the headline number for the binary wire format.
// format=json decodes the envelope with encoding/json and each item body
// per endpoint; format=binary runs the pooled wire.Decoder with in-place
// row decoding. BENCH_*.json derives binary_ingest_speedup (rows/s) and
// binary_ingest_alloc_ratio (allocs/batch) from the pair.
func BenchmarkIngestBatchWire(b *testing.B) {
	const routers, items = 16, 32
	jsonBody := benchBatchBody(b, routers, items)
	var batch []BatchItem
	if err := json.Unmarshal(jsonBody, &batch); err != nil {
		b.Fatal(err)
	}
	wireItems := make([]wire.Item, len(batch))
	for i, it := range batch {
		wireItems[i] = wire.Item{Endpoint: it.Endpoint, Key: it.Key,
			Payload: wire.PayloadFromJSON(it.Endpoint, it.Body)}
		if wireItems[i].Payload.Kind == wire.KindRaw {
			b.Fatalf("item %d fell back to raw JSON; benchmark would not measure the typed path", i)
		}
	}
	binBody := wire.AppendBatch(nil, wireItems)

	for _, bc := range []struct {
		format string
		ct     string
		body   []byte
	}{
		{"json", "application/json", jsonBody},
		{"binary", wire.ContentTypeBinary, binBody},
	} {
		b.Run("format="+bc.format, func(b *testing.B) {
			srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(bc.body))
				req.Header.Set("Content-Type", bc.ct)
				rec := httptest.NewRecorder()
				srv.handleBatch(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*items/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// benchNoncePlaceholder is the fixed-width run-counter slot inside every
// benchmark idempotency key; patching it per iteration makes each batch
// fresh (real store applies, no dedupe short-circuit) without
// re-marshaling the payload inside the timed loop.
const benchNoncePlaceholder = "n0000000000"

// benchTracedBatchBody builds a keyed /v1/batch payload whose items
// carry wire spans, the shape a spooling gateway actually sends. It
// returns the body plus the byte offsets of every nonce placeholder.
func benchTracedBatchBody(b *testing.B, routers, items int) ([]byte, []int) {
	b.Helper()
	batch := make([]BatchItem, items)
	for i := range batch {
		router := fmt.Sprintf("bench-%03d", i%routers)
		body, err := json.Marshal(uptimeRow(router, time.Duration(i)*time.Second))
		if err != nil {
			b.Fatal(err)
		}
		// Span times track the wall clock: a spool.queued span stamped in
		// 2013 would read as a years-slow trace and force the tail sampler
		// to keep every item, turning the benchmark into the 100%-keep
		// worst case instead of the shipped steady state.
		qs := time.Now().Add(-time.Millisecond)
		key := fmt.Sprintf("%s:%s:%d", router, benchNoncePlaceholder, i)
		batch[i] = BatchItem{Endpoint: "/v1/uptime", Key: key, Body: body,
			Trace: &trace.Wire{TraceID: trace.IDFromKey(key), Router: router,
				Spans: []trace.Span{{Name: "spool.queued", Start: qs, End: qs.Add(time.Millisecond)}}}}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	var offs []int
	for at := 0; ; {
		i := bytes.Index(body[at:], []byte(benchNoncePlaceholder))
		if i < 0 {
			break
		}
		offs = append(offs, at+i+1) // +1: skip the "n", patch the digits
		at += i + len(benchNoncePlaceholder)
	}
	if len(offs) != items {
		b.Fatalf("found %d nonce slots, want %d", len(offs), items)
	}
	return body, offs
}

// BenchmarkIngestBatchTraced measures what end-to-end tracing costs the
// ingest hot path at the shipped defaults (5% tail sampling). Both
// variants decode the same keyed payload with embedded wire spans and
// apply fresh rows every iteration; only the tracing switch differs, so
// the delta isolates ID derivation, the pre-sampling decision, and the
// sampled minority's trace assembly. The overhead budget is <5%. The
// slow threshold is raised past the benchmark's own run time so the
// synthetic span ages never read as "slow" and force a 100% keep rate.
func BenchmarkIngestBatchTraced(b *testing.B) {
	const routers, items = 16, 32
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("tracing=%v", on), func(b *testing.B) {
			defer trace.SetEnabled(true)
			trace.SetEnabled(on)
			srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			srv.SetTraceSampling(0.05, time.Hour)
			body, offs := benchTracedBatchBody(b, routers, items)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var digits [10]byte
				for d, v := len(digits)-1, i; d >= 0; d, v = d-1, v/10 {
					digits[d] = byte('0' + v%10)
				}
				for _, off := range offs {
					copy(body[off:off+len(digits)], digits[:])
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				srv.handleBatch(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*items/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// benchMixedPayloads builds n uploads cycling through every Sink kind,
// sized like a gateway's: a census with sightings, a scan, a flow table
// and a throughput series between the single-row reports.
func benchMixedPayloads(n int) []wire.Payload {
	at := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	out := make([]wire.Payload, n)
	for i := range out {
		router := fmt.Sprintf("bench-%03d", i%16)
		t := at.Add(time.Duration(i) * time.Minute)
		dev := mac.Addr{2, 0, 0, 0, byte(i), 1}
		switch i % 6 {
		case 0:
			out[i] = wire.Payload{Kind: wire.KindUptime, Uptime: dataset.UptimeReport{RouterID: router, ReportedAt: t, Uptime: time.Hour}}
		case 1:
			out[i] = wire.Payload{Kind: wire.KindCapacity, Capacity: dataset.CapacityMeasure{RouterID: router, MeasuredAt: t, UpBps: 1e6, DownBps: 8e6}}
		case 2:
			p := wire.Payload{Kind: wire.KindDevices, Count: dataset.DeviceCount{RouterID: router, At: t, Wired: 1, W24: 3}}
			for j := 0; j < 4; j++ {
				p.Sightings = append(p.Sightings, dataset.DeviceSighting{RouterID: router, At: t, Device: dev, Kind: dataset.Wireless24})
			}
			out[i] = p
		case 3:
			out[i] = wire.Payload{Kind: wire.KindWiFi, WiFi: []dataset.WiFiScan{
				{RouterID: router, At: t, Band: "2.4GHz", Channel: 6, VisibleAPs: 11, Clients: 3},
				{RouterID: router, At: t, Band: "5GHz", Channel: 36, VisibleAPs: 2, Clients: 1}}}
		case 4:
			p := wire.Payload{Kind: wire.KindFlows}
			for j := 0; j < 8; j++ {
				p.Flows = append(p.Flows, dataset.FlowRecord{RouterID: router, Device: dev, Domain: fmt.Sprintf("d%d.example", j),
					Proto: "tcp", First: t, Last: t.Add(time.Minute), UpBytes: 1200, DownBytes: 64000, UpPkts: 9, DownPkts: 50, Conns: 1})
			}
			out[i] = p
		default:
			p := wire.Payload{Kind: wire.KindThroughput}
			for j := 0; j < 4; j++ {
				p.Throughput = append(p.Throughput, dataset.ThroughputSample{RouterID: router, Minute: t.Add(time.Duration(j) * time.Minute),
					Dir: "down", PeakBps: 4e6, TotalBytes: 1 << 20})
			}
			out[i] = p
		}
	}
	return out
}

// BenchmarkClientSendBatch prices one delivery attempt on the client —
// the per-batch work a home router's agent does: a 64-item batch mixing
// every upload kind, traced as shipped, framed as NPB2 and POSTed to an
// in-process server that acknowledges without decoding. src=sink sends
// the items as the Sink methods spool them, payload sections encoded
// once at enqueue; src=journal sends them as recovered from the disk
// journal, JSON bodies only, so every attempt transcodes each body.
func BenchmarkClientSendBatch(b *testing.B) {
	const items = 64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Accept-Post", wire.ContentTypeBinary)
		if r.URL.Path != "/v1/batch" {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Write([]byte(`{"applied":64}`))
	}))
	defer ts.Close()
	c, err := NewClient("bench-client", "US", "127.0.0.1:9", strings.TrimPrefix(ts.URL, "http://"),
		WithWireFormat(WireBinary))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var sink, journal []spool.Item
	for i, p := range benchMixedPayloads(items) {
		it, err := c.spoolItem(&p)
		if err != nil || it.Encoded == nil {
			b.Fatalf("item %d: no payload section (%v)", i, err)
		}
		it.Key = fmt.Sprintf("bench-client:n:%s:%d", it.Endpoint, i)
		it.EnqueuedAt = time.Now()
		sink = append(sink, it)
		it.Encoded = nil
		journal = append(journal, it)
	}
	for _, bc := range []struct {
		src   string
		items []spool.Item
	}{{"sink", sink}, {"journal", journal}} {
		b.Run("src="+bc.src, func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.sendBatch(ctx, bc.items); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*items/b.Elapsed().Seconds(), "items/s")
		})
	}
}
