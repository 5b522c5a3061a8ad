package verify

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden snapshots under testdata/golden")

// runOnce executes one verification run, failing the test on harness
// errors (the collector refusing uploads, a spool not draining, …).
func runOnce(t *testing.T, seed uint64) *Result {
	t.Helper()
	r, err := Run(Config{Seed: seed})
	if err != nil {
		t.Fatalf("verify.Run(seed=%d): %v", seed, err)
	}
	return r
}

// TestGoldenRun drives the full deployment through the real collector
// and compares the normalized snapshot against the checked-in golden.
// After an intended behaviour change, regenerate with
//
//	go test ./internal/verify -run TestGoldenRun -update
//
// and review the golden diff like any other code change.
func TestGoldenRun(t *testing.T) {
	r := runOnce(t, 1)
	if fails := CheckAll(r, nil); len(fails) > 0 {
		for _, f := range fails {
			t.Errorf("invariant %s", f)
		}
	}
	got := BuildSnapshot(r).Encode()

	path := filepath.Join("testdata", "golden", "run-seed1.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden snapshot (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot drifted from %s.\nIf the change is intended, re-run with -update and review the diff.\n%s",
			path, snapshotDiff(want, got))
	}
}

// TestGoldenDeterminism pins the harness's central promise: the run is
// a pure function of the seed. Same seed twice → byte-identical
// snapshots; a different seed → a different one (so the snapshot
// actually depends on the run, not just the config).
func TestGoldenDeterminism(t *testing.T) {
	a := BuildSnapshot(runOnce(t, 7)).Encode()
	b := BuildSnapshot(runOnce(t, 7)).Encode()
	if !bytes.Equal(a, b) {
		t.Errorf("two runs with seed 7 produced different snapshots:\n%s", snapshotDiff(a, b))
	}
	c := BuildSnapshot(runOnce(t, 8)).Encode()
	if bytes.Equal(a, c) {
		t.Error("seeds 7 and 8 produced identical snapshots; the snapshot is not sensitive to the run")
	}
}

// TestInvariantsCatchTampering guards the checker itself: a run whose
// accounting is corrupted after the fact must fail conservation.
func TestInvariantsCatchTampering(t *testing.T) {
	r := runOnce(t, 3)
	if fails := CheckAll(r, nil); len(fails) > 0 {
		t.Fatalf("clean run violates invariants: %v", fails)
	}
	r.World.Acct.FrameUpBytes += 1000 // a thousand bytes vanish between layers
	if fails := CheckAll(r, nil); len(fails) == 0 {
		t.Error("byte-conservation tampering went undetected")
	}
	r.World.Acct.FrameUpBytes -= 1000
	r.Ingested.Flows = r.Ingested.Flows[:len(r.Ingested.Flows)-1] // drop an ingested row
	if fails := CheckAll(r, nil); len(fails) == 0 {
		t.Error("dropped ingest row went undetected")
	}
}

// snapshotDiff renders the first diverging lines of two snapshots (a
// full diff of multi-KB JSON helps nobody in test output).
func snapshotDiff(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("first divergence at line %d:\n- %s\n+ %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

// TestGoldenIdenticalAcrossWireFormats pins the tentpole's core
// promise: the NPB2 binary batch encoding is a transport detail. A run
// forced onto legacy JSON and a run left to negotiate binary must
// produce byte-identical snapshots.
func TestGoldenIdenticalAcrossWireFormats(t *testing.T) {
	auto := BuildSnapshot(runOnce(t, 1)).Encode()
	forced, err := Run(Config{Seed: 1, ForceJSON: true})
	if err != nil {
		t.Fatal(err)
	}
	jsonSnap := BuildSnapshot(forced).Encode()
	if !bytes.Equal(auto, jsonSnap) {
		t.Errorf("wire format changed the snapshot:\n%s", snapshotDiff(jsonSnap, auto))
	}
}

// TestPrivacyScannerSeesThroughBinary guards the scanner itself: a MAC
// address that ships inside an NPB2 body as 6 raw bytes — invisible to
// a textual grep of the wire bytes — must still be caught once the
// scanner decodes the batch.
func TestPrivacyScannerSeesThroughBinary(t *testing.T) {
	hw := mac.MustParse("00:1c:b3:09:0a:0b")
	body := wire.AppendBatch(nil, []wire.Item{{
		Endpoint: "/v1/devices", Key: "leak-1",
		Payload: wire.Payload{Kind: wire.KindDevices,
			Count: dataset.DeviceCount{RouterID: "r", At: time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)},
			Sightings: []dataset.DeviceSighting{{RouterID: "r",
				At: time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC), Device: hw}}},
	}})
	if bytes.Contains(bytes.ToLower(body), []byte(hw.String())) {
		t.Fatal("test premise broken: the MAC is textual on the binary wire")
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	text, err := scanText(req, body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(text), hw.String()) {
		t.Fatalf("decoded scan text misses the MAC:\n%s", text)
	}
}
