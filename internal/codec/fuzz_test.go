package codec

import (
	"bytes"
	"math"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
)

// encodeRows frames rows the way NPB2 does: a count, then the block.
func encodeRows[T any](s Schema[T], rows []T) []byte {
	var w Writer
	w.Uvarint(uint64(len(rows)))
	s.Append(&w, rows)
	return w.Buf
}

// decodeRows reads a count and a block, requiring every byte be used.
func decodeRows[T any](s Schema[T], b []byte, in *Interner) ([]T, error) {
	r := NewReader(b)
	r.Intern = in
	rows := s.Decode(r, nil, r.Count())
	return rows, r.End()
}

// checkFixedPoint decodes data with s; if that succeeds, the re-encoded
// rows must decode again and encode to the same bytes.
func checkFixedPoint[T any](t *testing.T, name string, s Schema[T], data []byte, in *Interner) {
	t.Helper()
	rows, err := decodeRows(s, data, in)
	if err != nil {
		return
	}
	b1 := encodeRows(s, rows)
	rows1, err := decodeRows(s, b1, in)
	if err != nil {
		t.Fatalf("%s: re-encoded rows failed to decode: %v", name, err)
	}
	if b2 := encodeRows(s, rows1); !bytes.Equal(b1, b2) {
		t.Fatalf("%s: encoding is not a fixed point:\nfirst  %x\nsecond %x", name, b1, b2)
	}
}

// FuzzSchemaDecode runs arbitrary bytes through every row kind's
// decoder: decoding never panics, and whatever decodes re-encodes to a
// fixed point.
func FuzzSchemaDecode(f *testing.F) {
	at := time.Date(2013, 4, 1, 12, 0, 0, 7, time.UTC)
	dev := mac.Addr{0xaa, 0xbb, 0xcc, 1, 2, 3}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(encodeRows(Uptime, []dataset.UptimeReport{{RouterID: "r", ReportedAt: at, Uptime: -time.Hour}, {RouterID: "r"}}))
	f.Add(encodeRows(Capacity, []dataset.CapacityMeasure{{RouterID: "r", MeasuredAt: at, UpBps: math.NaN(), DownBps: 1e308}}))
	f.Add(encodeRows(Sightings, []dataset.DeviceSighting{{RouterID: "r", At: at, Device: dev, Kind: -1}}))
	f.Add(encodeRows(Flows, []dataset.FlowRecord{
		{RouterID: "r", Device: dev, Domain: "a.example", Proto: "tcp", First: at, Last: at.Add(time.Second), UpBytes: math.MinInt64},
		{RouterID: "r", Device: dev, Domain: "b.example", Proto: "tcp", Last: time.Unix(math.MinInt64/4, 999999999)},
	}))
	f.Add(encodeRows(Keys, []dataset.RouterKey{{Router: "r", Key: "k\x00"}, {Router: "r", Key: ""}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Interner
		checkFixedPoint(t, "uptime", Uptime, data, &in)
		checkFixedPoint(t, "capacity", Capacity, data, &in)
		checkFixedPoint(t, "counts", Counts, data, nil)
		checkFixedPoint(t, "sightings", Sightings, data, nil)
		checkFixedPoint(t, "wifi", WiFi, data, &in)
		checkFixedPoint(t, "flows", Flows, data, &in)
		checkFixedPoint(t, "throughput", Throughput, data, nil)
		checkFixedPoint(t, "keys", Keys, data, nil)
	})
}
