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

// FuzzDecodeLabel holds the op-ID envelope to two properties: every
// valid op ID and any label round-trip through encodeLabel and
// decodeLabel, and every string decodeLabel accepts re-encodes to
// itself. Seeded with the spend labels of the group-log fixture.
func FuzzDecodeLabel(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "group-torn.wal"))
	if err != nil {
		f.Fatal(err)
	}
	for off := len(groupLogMagic); ; {
		payload, n, ok := accountant.NextFrame(data[off:])
		if !ok {
			break
		}
		if e, ok := decodeEntryPayload(payload); ok && e.Label != "" {
			id, label, _ := decodeLabel(e.Label)
			f.Add(e.Label, label)
			f.Add(id, label)
		}
		off += n
	}
	f.Fuzz(func(t *testing.T, s, label string) {
		if validOpID(s) {
			if id, l, ok := decodeLabel(encodeLabel(s, label)); !ok || id != s || l != label {
				t.Fatalf("encodeLabel(%q, %q) decodes to (%q, %q, %v)", s, label, id, l, ok)
			}
		}
		if id, l, ok := decodeLabel(s); ok {
			if got := encodeLabel(id, l); got != s {
				t.Fatalf("%q decodes to (%q, %q), which re-encodes to %q", s, id, l, got)
			}
		}
	})
}
