package segment

import (
	"bytes"
	"testing"
	"time"

	"natpeek/internal/codec"
	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/wire"
)

// TestNPB2PayloadIsNPS1Block pins the one-schema claim: for every data
// set, an NPB2 item's payload is byte for byte the NPS1 block Encode
// writes for the same rows, after the item's meta, key and row count.
func TestNPB2PayloadIsNPS1Block(t *testing.T) {
	at := time.Date(2013, 4, 1, 12, 0, 0, 5, time.UTC)
	dev := mac.Addr{0xaa, 0xbb, 0xcc, 1, 2, 3}
	up := dataset.UptimeReport{RouterID: "r1", ReportedAt: at, Uptime: time.Hour}
	capm := dataset.CapacityMeasure{RouterID: "r1", MeasuredAt: at, UpBps: 1e6, DownBps: 2e7}
	count := dataset.DeviceCount{RouterID: "r1", At: at, Wired: 1, W24: 2}
	sightings := []dataset.DeviceSighting{
		{RouterID: "r1", At: at, Device: dev, Kind: dataset.Wireless24},
		{RouterID: "r1", Device: dev}, // zero time
	}
	wifi := []dataset.WiFiScan{
		{RouterID: "r1", At: at, Band: "2.4GHz", Channel: 6, VisibleAPs: 4, Clients: 2},
		{RouterID: "r1", At: at.Add(time.Minute), Band: "5GHz", Channel: 36},
	}
	flows := []dataset.FlowRecord{
		{RouterID: "r1", Device: dev, Domain: "a.example", Proto: "tcp", First: at, Last: at.Add(time.Second),
			UpBytes: 10, DownBytes: 900, UpPkts: 1, DownPkts: 3, Conns: 1},
		{RouterID: "r1", Device: dev, Domain: "a.example", Proto: "udp", First: at},
	}
	thr := []dataset.ThroughputSample{{RouterID: "r1", Minute: at, Dir: "down", PeakBps: 3e6, TotalBytes: 1 << 20}}
	st := &dataset.Store{RouterCountry: map[string]string{"r1": "US"},
		Uptime: []dataset.UptimeReport{up}, Capacity: []dataset.CapacityMeasure{capm},
		Counts: []dataset.DeviceCount{count}, Sightings: sightings, WiFi: wifi, Flows: flows, Throughput: thr}
	r, err := NewReader(Encode(st, nil, SeqRange{First: 1, Last: 1}, nil))
	if err != nil {
		t.Fatal(err)
	}
	block := func(kind uint64) []byte {
		for _, b := range r.meta.blocks {
			if b.kind == kind {
				return r.buf[b.off : b.off+b.len]
			}
		}
		t.Fatalf("segment has no block %d", kind)
		return nil
	}

	for _, c := range []struct {
		p      wire.Payload
		rows   int // the item's row count field; -1 for single-row kinds
		blocks []uint64
	}{
		{wire.Payload{Kind: wire.KindUptime, Uptime: up}, -1, []uint64{blkUptime}},
		{wire.Payload{Kind: wire.KindCapacity, Capacity: capm}, -1, []uint64{blkCapacity}},
		{wire.Payload{Kind: wire.KindDevices, Count: count, Sightings: sightings}, len(sightings),
			[]uint64{blkCounts, blkSightings}},
		{wire.Payload{Kind: wire.KindWiFi, WiFi: wifi}, len(wifi), []uint64{blkWiFi}},
		{wire.Payload{Kind: wire.KindFlows, Flows: flows}, len(flows), []uint64{blkFlows}},
		{wire.Payload{Kind: wire.KindThroughput, Throughput: thr}, len(thr), []uint64{blkThroughput}},
	} {
		want := codec.Writer{Buf: []byte("NPB2")}
		want.Uvarint(1)                // item count
		want.Uvarint(uint64(c.p.Kind)) // meta: kind, no trace
		want.Str("")                   // key
		if c.rows >= 0 {
			want.Uvarint(uint64(c.rows))
		}
		for _, k := range c.blocks {
			want.Raw(block(k))
		}
		got := wire.AppendBatch(nil, []wire.Item{{Endpoint: c.p.Kind.Endpoint(), Payload: c.p}})
		if !bytes.Equal(got, want.Buf) {
			t.Errorf("%s: NPB2 item is not its NPS1 block:\ngot  %x\nwant %x", c.p.Kind.Endpoint(), got, want.Buf)
		}
	}
}
