package spool

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/wire"
)

// TestJournalRecoveredItemEncodesIdentically pins the journal fallback
// of the encode-once path: a payload section rides with its item in
// memory but is never journaled, so an item recovered from disk carries
// only its JSON body — and transcoding that body must give the very
// bytes the producer encoded from its typed rows.
func TestJournalRecoveredItemEncodesIdentically(t *testing.T) {
	dir := t.TempDir()
	at := time.Date(2013, 3, 4, 5, 6, 7, 8, time.FixedZone("IST", 5*3600+1800))
	scans := []dataset.WiFiScan{
		{RouterID: "rt-enc", At: at, Band: "2.4GHz", Channel: 6, VisibleAPs: 9, Clients: 2},
		{RouterID: "rt-enc", Band: "5GHz", Channel: 36}, // zero time
	}
	body, err := json.Marshal(scans)
	if err != nil {
		t.Fatal(err)
	}
	p := wire.Payload{Kind: wire.KindWiFi, WiFi: scans}
	encoded := wire.AppendPayload(nil, &p)

	rec := &recorder{}
	rec.setFail(true)
	s, err := New(fastRetry(Config{KeyPrefix: "gw-enc", Dir: dir}), rec.send)
	if err != nil {
		t.Fatal(err)
	}
	s.EnqueueItem(Item{Endpoint: "/v1/wifi", Body: body, Encoded: encoded})
	if items := s.take(); len(items) != 1 || !bytes.Equal(items[0].Encoded, encoded) {
		t.Fatalf("queued item lost its payload section: %+v", items)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(fastRetry(Config{KeyPrefix: "gw-enc", Dir: dir}), rec.send)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	items := s2.take()
	if len(items) != 1 {
		t.Fatalf("recovered %d items, want 1", len(items))
	}
	got := items[0]
	if got.Encoded != nil {
		t.Fatalf("payload section was journaled: %d bytes", len(got.Encoded))
	}
	tp := wire.PayloadFromJSON(got.Endpoint, got.Body)
	if tp.Kind != wire.KindWiFi {
		t.Fatalf("recovered body transcodes to kind %d, want KindWiFi", tp.Kind)
	}
	if re := wire.AppendPayload(nil, &tp); !bytes.Equal(re, encoded) {
		t.Fatalf("recovered item encodes to\n%x\nwant\n%x", re, encoded)
	}
}
