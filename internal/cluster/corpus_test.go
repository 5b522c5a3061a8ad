package cluster

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestWriteSeedCorpus regenerates the checked-in fuzz seed corpus from
// the canonical encoder, so the seeds track format changes instead of
// rotting. Run with CLUSTER_WRITE_CORPUS=1 after changing the encoding.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("CLUSTER_WRITE_CORPUS") == "" {
		t.Skip("set CLUSTER_WRITE_CORPUS=1 to regenerate testdata/fuzz seeds")
	}
	seeds := map[string][]byte{
		"bad-magic":  []byte("JSON{}"),
		"magic-only": []byte(ctrlMagic),
	}
	for name, m := range sampleMessages() {
		b := AppendMessage(nil, m)
		seeds[name] = b
		seeds[name+"-truncated"] = b[:len(b)*2/3]
	}
	good := AppendMessage(nil, sampleMessages()["gossip"])
	seeds["trailing-garbage"] = append(append([]byte(nil), good...), 0xde, 0xad)

	dir := filepath.Join("testdata", "fuzz", "FuzzControlDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestControlSeedsByteStable pins the NPC1 bytes against the checked-in
// corpus an earlier encoder wrote: every complete message re-encodes
// byte-identically, and every truncated or corrupt one is still refused.
func TestControlSeedsByteStable(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzControlDecode")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string]bool{"bad-magic": true, "magic-only": true, "trailing-garbage": true}
	var complete, rejected int
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		m, err := DecodeMessage([]byte(seed))
		if corrupt[e.Name()] || strings.HasSuffix(e.Name(), "-truncated") {
			rejected++
			if err == nil {
				t.Errorf("%s: corrupt seed decoded", e.Name())
			}
			continue
		}
		complete++
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		} else if got := AppendMessage(nil, m); string(got) != seed {
			t.Errorf("%s: re-encoded bytes differ:\ngot  %q\nwant %q", e.Name(), got, seed)
		}
	}
	if complete != 15 || rejected != 18 {
		t.Fatalf("corpus has %d complete and %d corrupt seeds, want 15 and 18", complete, rejected)
	}
}
