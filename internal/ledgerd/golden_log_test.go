package ledgerd

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dp"
)

// updateGolden rewrites the testdata fixture from the live code. It was
// generated once, by the commit BEFORE the group log moved onto the
// shared accountant.Log, and pins the on-disk format across that move:
// do not regenerate it to make a failing test pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden log fixtures from the live code")

// goldenEntries covers every entry kind across a term change.
var goldenEntries = []groupEntry{
	{Index: 1, Term: 1, Kind: entryNoop},
	{Index: 2, Term: 1, Kind: entryAttach, Key: "d.0a1b2c3d", Budget: dp.Params{Epsilon: 2, Delta: 1e-4}},
	{Index: 3, Term: 1, Kind: entrySpend, Key: "d.0a1b2c3d", Seq: 1,
		Cost: dp.Params{Epsilon: 0.5}, Label: encodeLabel("c1-1", "ingest/phase1")},
	{Index: 4, Term: 2, Kind: entryNoop},
	{Index: 5, Term: 2, Kind: entrySpend, Key: "d.0a1b2c3d", Seq: 2,
		Cost: dp.Params{Epsilon: 0.25, Delta: 2e-6}, Label: encodeLabel("c2-1", "s1/q0/view/level2")},
}

func entryFrame(e groupEntry) []byte {
	return accountant.Frame(nil, encodeEntryPayload(nil, e))
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenGroupLogFixture pins the replicated log's bytes (attach,
// spend and no-op entries plus a torn tail) and the term and epoch
// files' text: the live code must write the same bytes, open the
// fixture to the same entries, and cut the torn tail at the same offset.
func TestGoldenGroupLogFixture(t *testing.T) {
	mustOpen := func(dir string) *groupLog {
		t.Helper()
		l, err := openGroupLog(dir, accountant.DurableOptions{})
		if err != nil {
			t.Fatalf("openGroupLog(%s): %v", dir, err)
		}
		return l
	}

	// Re-encode: the live code writes the five entries byte-identically.
	live := t.TempDir()
	l := mustOpen(live)
	for _, e := range goldenEntries {
		if err := l.appendEntries(e); err != nil {
			t.Fatalf("appendEntries(%d): %v", e.Index, err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	clean := readFile(t, filepath.Join(live, groupLogFile))
	tornFrame := entryFrame(groupEntry{Index: 6, Term: 2, Kind: entryNoop})
	got := append(clean[:len(clean):len(clean)], tornFrame[:len(tornFrame)-3]...)
	fixture := filepath.Join("testdata", "group-torn.wal")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	torn := readFile(t, fixture)
	if !bytes.Equal(got, torn) {
		t.Fatalf("live code wrote %d bytes that differ from the %d-byte fixture", len(got), len(torn))
	}

	// The fixture opens to the five entries and loses exactly its tail.
	dir := t.TempDir()
	path := filepath.Join(dir, groupLogFile)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(dir)
	if l.len() != uint64(len(goldenEntries)) || l.lastTerm() != 2 {
		t.Fatalf("fixture opened to %d entries at term %d, want %d at term 2", l.len(), l.lastTerm(), len(goldenEntries))
	}
	for i, want := range goldenEntries {
		if got := l.entry(uint64(i + 1)); got != want {
			t.Fatalf("entry %d = %+v, want %+v", i+1, got, want)
		}
		if got := l.frame(uint64(i + 1)); !bytes.Equal(got, entryFrame(want)) {
			t.Fatalf("entry %d: raw frame differs from its re-encoding", i+1)
		}
	}
	if got := readFile(t, path); !bytes.Equal(got, clean) {
		t.Fatalf("torn tail: file is %d bytes after open, want the %d-byte clean prefix", len(got), len(clean))
	}

	// Conflict resolution: dropping the term-2 suffix cuts the file at
	// entry 4's boundary, and the writer resumes exactly there.
	if err := l.truncateFrom(4); err != nil {
		t.Fatal(err)
	}
	cut := len(groupLogMagic)
	for _, e := range goldenEntries[:3] {
		cut += len(entryFrame(e))
	}
	if got := readFile(t, path); !bytes.Equal(got, clean[:cut]) {
		t.Fatalf("truncateFrom(4): file is %d bytes, want the first %d of the fixture", len(got), cut)
	}
	repl := groupEntry{Index: 4, Term: 3, Kind: entryNoop}
	if err := l.appendEntries(repl); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(dir)
	if l.len() != 4 || l.entry(4) != repl || l.entry(3) != goldenEntries[2] {
		t.Fatalf("after truncate+append the log reopened to %d entries, last %+v", l.len(), l.entry(l.len()))
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	// The term file is one line of text: the epoch token.
	if err := storeTerm(dir, 0x0123456789abcdef, 7); err != nil {
		t.Fatal(err)
	}
	termPath := filepath.Join(dir, termFile)
	if got := string(readFile(t, termPath)); got != "0123456789abcdef:7\n" {
		t.Fatalf("term file = %q, want %q", got, "0123456789abcdef:7\n")
	}
	if id, term, err := loadTerm(dir); err != nil || id != 0x0123456789abcdef || term != 7 {
		t.Fatalf("loadTerm = %x, %d, %v; want 0123456789abcdef, 7", id, term, err)
	}
	// A term file written before the identity joined it reads as
	// identity 0 (New then draws one).
	if err := os.WriteFile(termPath, []byte("41\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if id, term, err := loadTerm(dir); err != nil || id != 0 || term != 41 {
		t.Fatalf("loadTerm of a term-only file = %x, %d, %v; want 0, 41", id, term, err)
	}
}
