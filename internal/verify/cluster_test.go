package verify

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestClusterGoldenEquivalence is the cluster's data-plane contract:
// the same seeded deployment driven through a 3-node cluster front —
// rows sharded across nodes by consistent hash, writes replicated,
// heartbeats terminating at the front — must produce a snapshot
// byte-identical to the single-node golden. Routing and replication
// are transport, not data.
func TestClusterGoldenEquivalence(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "run-seed1.json"))
	if err != nil {
		t.Fatalf("no golden snapshot (generate with TestGoldenRun -update): %v", err)
	}
	r, err := RunCluster(Config{Seed: 1}, 3)
	if err != nil {
		t.Fatalf("verify.RunCluster: %v", err)
	}
	if len(r.PrivacyViolations) > 0 {
		t.Errorf("privacy violations through the cluster path: %v", r.PrivacyViolations)
	}
	if fails := CheckAll(r, nil); len(fails) > 0 {
		for _, f := range fails {
			t.Errorf("invariant %s", f)
		}
	}
	got := BuildSnapshot(r).Encode()
	if !bytes.Equal(got, want) {
		t.Errorf("cluster-merged snapshot differs from single-node golden:\n%s",
			snapshotDiff(want, got))
	}
}

// TestClusterGoldenEquivalenceFiveNodes re-runs the equivalence at a
// wider ring: node count is a deployment knob, not a data parameter,
// so five shards must flatten to the same golden bytes as three.
func TestClusterGoldenEquivalenceFiveNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-deployment rerun; covered by the 3-node variant in short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "run-seed1.json"))
	if err != nil {
		t.Fatalf("no golden snapshot (generate with TestGoldenRun -update): %v", err)
	}
	r, err := RunCluster(Config{Seed: 1}, 5)
	if err != nil {
		t.Fatalf("verify.RunCluster(5): %v", err)
	}
	got := BuildSnapshot(r).Encode()
	if !bytes.Equal(got, want) {
		t.Errorf("5-node cluster snapshot differs from single-node golden:\n%s",
			snapshotDiff(want, got))
	}
}

// goldenRebalance drives one mid-run scale event through the seeded
// deployment and asserts the merged snapshot still matches the
// single-node golden byte for byte: ownership transfer, epoch fencing,
// and dedupe-key movement must be invisible in the data.
func goldenRebalance(t *testing.T, op string, forceJSON bool) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "run-seed1.json"))
	if err != nil {
		t.Fatalf("no golden snapshot (generate with TestGoldenRun -update): %v", err)
	}
	r, err := RunClusterRebalance(Config{Seed: 1, ForceJSON: forceJSON}, 3, op)
	if err != nil {
		t.Fatalf("verify.RunClusterRebalance(%s): %v", op, err)
	}
	if len(r.PrivacyViolations) > 0 {
		t.Errorf("privacy violations during %s: %v", op, r.PrivacyViolations)
	}
	if fails := CheckAll(r, nil); len(fails) > 0 {
		for _, f := range fails {
			t.Errorf("invariant %s", f)
		}
	}
	got := BuildSnapshot(r).Encode()
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot after mid-run %s differs from single-node golden:\n%s",
			op, snapshotDiff(want, got))
	}
}

// TestClusterGoldenJoinMidRun: a fourth node joins while clients are
// uploading; the post-join merged snapshot equals the golden.
func TestClusterGoldenJoinMidRun(t *testing.T) {
	goldenRebalance(t, "join", false)
}

// TestClusterGoldenDrainMidRun: a node drains to zero while clients
// are uploading; the post-drain merged snapshot equals the golden.
func TestClusterGoldenDrainMidRun(t *testing.T) {
	goldenRebalance(t, "drain", false)
}

// JSON-wire variants cover the front's JSON decode + regroup + NPB2
// re-encode path under a concurrent scale event.
func TestClusterGoldenJoinMidRunJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full-deployment rerun; covered by the binary-wire variant in short mode")
	}
	goldenRebalance(t, "join", true)
}

func TestClusterGoldenDrainMidRunJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full-deployment rerun; covered by the binary-wire variant in short mode")
	}
	goldenRebalance(t, "drain", true)
}

// TestClusterGoldenEquivalenceJSON re-runs the cluster equivalence with
// clients forced onto the legacy JSON batch encoding, covering the
// front's JSON decode + regroup + NPB2 re-encode path end to end.
func TestClusterGoldenEquivalenceJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full-deployment rerun; covered by the binary-wire variant in short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "run-seed1.json"))
	if err != nil {
		t.Fatalf("no golden snapshot (generate with TestGoldenRun -update): %v", err)
	}
	r, err := RunCluster(Config{Seed: 1, ForceJSON: true}, 3)
	if err != nil {
		t.Fatalf("verify.RunCluster(json): %v", err)
	}
	got := BuildSnapshot(r).Encode()
	if !bytes.Equal(got, want) {
		t.Errorf("cluster JSON-wire snapshot differs from single-node golden:\n%s",
			snapshotDiff(want, got))
	}
}
