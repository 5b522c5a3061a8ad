package wire

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"natpeek/internal/codec"
	"natpeek/internal/trace"
)

// TestSpanTimeSentinelCollision pins that span times straight off an
// absurd client clock round-trip exactly. The instant here is the one
// whose delta collided with the zero-time sentinel of the earlier
// nanosecond delta chain; the time column has no sentinel, so it must
// come back equal to the input, and the span's end with it.
func TestSpanTimeSentinelCollision(t *testing.T) {
	end := t0()
	items := []Item{{
		Endpoint: "/v1/register",
		Key:      "pfx:nonce:/v1/register:1",
		Payload:  Payload{Kind: KindRaw, Raw: []byte(`{}`)},
		Trace: &trace.Wire{Router: "router-01", Spans: []trace.Span{{
			Name: "absurd.clock", Status: "ok",
			Start: time.Unix(0, math.MinInt64),
			End:   end,
		}}},
	}}
	got := decodeAll(t, AppendBatch(nil, items))
	sp, in := got[0].Trace.Spans[0], items[0].Trace.Spans[0]
	if !sp.Start.Equal(in.Start) {
		t.Fatalf("span start = %v, want %v", sp.Start, in.Start)
	}
	if !sp.End.Equal(in.End) {
		t.Fatalf("span end = %v, want %v", sp.End, in.End)
	}
}

// TestForgedAttrCountAllocationBounded is the regression for sizing the
// span-attr slice from the claimed count: a count bounded only by one
// input byte per element handed a forged count ~32x amplification (a
// 200k claim allocated ~6.4 MiB before the decode failed). The decoder
// must refuse a claim that the bytes left could not hold at the
// minimum encoded size of an attr before allocating anything from it.
func TestForgedAttrCountAllocationBounded(t *testing.T) {
	const claimed = 200_000
	w := codec.Writer{Buf: []byte(magic)}
	w.Uvarint(1)                               // item count
	w.Uvarint(uint64(KindRaw) | hasTrace)      // meta: KindRaw + trace bit
	w.Str("x")                                 // endpoint
	w.Str("")                                  // key
	w.Ref("r")                                 // trace router
	w.Uvarint(1)                               // span count
	w.Raw([]byte{0, 1, 'n'})                   // span name column
	w.Raw([]byte{0, 1, 's'})                   // span status column
	w.Raw([]byte{1, 0})                        // start column: row 0 is the zero time
	w.Raw([]byte{1, 0})                        // end column: likewise
	w.Uvarint(claimed)                         // forged attr count...
	w.Raw(bytes.Repeat([]byte{0x80}, claimed)) // ..."backed" by bytes that decode as nothing
	buf := w.Buf

	d := new(Decoder)
	var it Item
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := d.Reset(buf); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	err := d.Next(&it)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged attr count decoded cleanly")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("decoding a forged attr count allocated %d bytes, want well under 1 MiB", alloc)
	}
}
