package ledgerd

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/accountant"
)

// FuzzDecodeEntryPayload: a payload either fails to decode or re-encodes
// to the identical bytes — the log never holds two spellings of one
// entry, so replication can ship the stored frame verbatim. Seeded from
// the golden fixture's entries.
func FuzzDecodeEntryPayload(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "group-torn.wal"))
	if err != nil {
		f.Fatal(err)
	}
	for off := len(groupLogMagic); ; {
		payload, n, ok := accountant.NextFrame(data[off:])
		if !ok {
			break
		}
		f.Add(payload)
		off += n
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, ok := decodeEntryPayload(payload)
		if !ok {
			return
		}
		if got := encodeEntryPayload(nil, e); !bytes.Equal(got, payload) {
			t.Fatalf("payload %x decoded to %+v, which re-encodes to %x", payload, e, got)
		}
	})
}
