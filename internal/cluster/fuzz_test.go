package cluster

import (
	"bytes"
	"testing"
)

// FuzzControlDecode holds the control plane to the same bar as the data
// plane's NPB2 codec: no input may panic the decoder, and anything that
// decodes must re-encode to a byte-identical buffer (so gossip relays
// and journaled replicate frames are stable across hops).
func FuzzControlDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(AppendMessage(nil, m))
	}
	f.Add([]byte(ctrlMagic))
	f.Add([]byte("NPC2\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		buf := AppendMessage(nil, m)
		m2, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if again := AppendMessage(nil, m2); !bytes.Equal(buf, again) {
			t.Fatalf("encoding is not a fixed point:\nfirst  %x\nsecond %x", buf, again)
		}
	})
}
