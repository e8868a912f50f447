package ledgerd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// noSyncFile is a log writer whose fsync is free: the fuzz target below
// exercises the protocol, not the disk.
type noSyncFile struct{ *os.File }

func (noSyncFile) Sync() error { return nil }

func openNoSync(path string) (accountant.WriteSyncer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// FuzzHandleAppend sends one arbitrary replication batch to a follower
// that holds the five fixture entries, committed. Whatever the term,
// previous index and term, commit and entry bytes, the follower must
// not panic, must keep the committed entries as they are, must keep its
// log dense with terms that never fall, and must reopen to exactly the
// entries it held. The entry bytes are split into frames by their
// length fields, so the fuzzer controls the frame count too. Seeded
// with frames of testdata/group-torn.wal, its torn tail included.
func FuzzHandleAppend(f *testing.F) {
	torn, err := os.ReadFile(filepath.Join("testdata", "group-torn.wal"))
	if err != nil {
		f.Fatal(err)
	}
	off := len(groupLogMagic)
	var frames [][]byte
	for {
		_, n, ok := accountant.NextFrame(torn[off:])
		if !ok {
			break
		}
		frames = append(frames, torn[off:off+n])
		off += n
	}
	prefix, tail := torn[:off], torn[off:]
	cat := func(fs ...[]byte) []byte { return bytes.Join(fs, nil) }
	next := entryFrame(groupEntry{Index: 6, Term: 3, Kind: entryNoop})
	f.Add(uint64(3), uint64(5), uint64(2), uint64(6), next)
	f.Add(uint64(2), uint64(3), uint64(1), uint64(5), cat(frames[3], frames[4]))
	f.Add(uint64(2), uint64(0), uint64(0), uint64(5), cat(frames...))
	f.Add(uint64(3), uint64(3), uint64(1), uint64(9), cat(frames[4], next))
	f.Add(uint64(3), uint64(5), uint64(2), uint64(6), tail)
	f.Add(uint64(1), uint64(5), uint64(2), uint64(5), []byte(nil))
	f.Fuzz(func(t *testing.T, term, prevIndex, prevTerm, commit uint64, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, groupLogFile), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := storeTerm(dir, 0x0123456789abcdef, 2); err != nil {
			t.Fatal(err)
		}
		g, err := New(Options{Dir: dir, NodeID: "f", ElectionTimeout: -1, OpenWriter: openNoSync,
			Peers: map[string]string{"f": "f.invalid", "p": "p.invalid", "q": "q.invalid"}})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if res, err := g.HandleAppend(AppendRequest{Term: 2, Leader: "p", PrevIndex: 5, PrevTerm: 2, Commit: 5}); err != nil || !res.OK {
			t.Fatalf("committing the fixture: %+v, %v", res, err)
		}
		var entries [][]byte
		for len(raw) > 0 {
			n := len(raw)
			if n >= 4 {
				n = min(n, 8+int(binary.LittleEndian.Uint32(raw)))
			}
			entries = append(entries, raw[:n])
			raw = raw[n:]
		}
		_, _ = g.HandleAppend(AppendRequest{Term: term, Leader: "p", PrevIndex: prevIndex, PrevTerm: prevTerm,
			Commit: commit, Entries: entries})

		g.mu.Lock()
		held := append([]groupEntry(nil), g.log.entries...)
		committed := g.commit
		g.mu.Unlock()
		if len(held) < len(goldenEntries) || committed < uint64(len(goldenEntries)) || committed > uint64(len(held)) {
			t.Fatalf("follower holds %d entries, commit %d; want the %d committed entries kept", len(held), committed, len(goldenEntries))
		}
		for i, e := range held {
			if i < len(goldenEntries) && e != goldenEntries[i] {
				t.Fatalf("committed entry %d became %+v", i+1, e)
			}
			if e.Index != uint64(i+1) {
				t.Fatalf("entry at position %d has index %d", i+1, e.Index)
			}
			if i > 0 && e.Term < held[i-1].Term {
				t.Fatalf("entry %d has term %d after term %d", i+1, e.Term, held[i-1].Term)
			}
		}
		if err := g.Close(); err != nil && !errors.Is(err, accountant.ErrLedgerFailed) {
			t.Fatal(err)
		}
		l, err := openGroupLog(dir, accountant.DurableOptions{})
		if err != nil {
			t.Fatalf("reopening: %v", err)
		}
		defer l.close()
		if fmt.Sprint(l.entries) != fmt.Sprint(held) {
			t.Fatalf("log reopened to %d entries, want the %d the follower held", l.len(), len(held))
		}
	})
}
