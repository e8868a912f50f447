package accountant

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dp"
)

// updateGolden rewrites the testdata fixtures from the live code. They
// were generated once, by the commit BEFORE DurableLedger moved onto the
// shared Log, and pin the on-disk format across that move: do not
// regenerate them to make a failing test pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden log fixtures from the live code")

// golden compares got with testdata/name (or writes it under
// -update-golden) and returns the fixture's bytes.
func golden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: live code wrote %d bytes that differ from the %d-byte fixture", name, len(got), len(want))
	}
	return want
}

var (
	goldenBudget = dp.Params{Epsilon: 2, Delta: 1e-4}
	// goldenTrail carries sequencer-style op-ID labels, so the fixture is
	// also what a gdpledgerd key's WAL looks like.
	goldenTrail = []Op{
		{Seq: 1, Label: "id=c1-1|ingest/phase1", Cost: dp.Params{Epsilon: 0.5}},
		{Seq: 2, Label: "id=c1-2|s1/q0/view/level2", Cost: dp.Params{Epsilon: 0.25, Delta: 2e-6}},
		{Seq: 3, Label: "id=c2-1|s2/q0/marginal/level1", Cost: dp.Params{Epsilon: 0.125, Delta: 1e-6}},
		{Seq: 4, Label: "id=c1-3|s1/q1/topk/level3", Cost: dp.Params{Epsilon: 0.0625, Delta: 1e-6}},
	}
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkTrail asserts l holds exactly the first n golden ops.
func checkTrail(t *testing.T, l Ledger, n int) {
	t.Helper()
	if got := l.Ops(); !reflect.DeepEqual(got, goldenTrail[:n]) {
		t.Fatalf("Ops = %+v, want %+v", got, goldenTrail[:n])
	}
	var spent dp.Params
	for _, op := range goldenTrail[:n] {
		spent.Epsilon += op.Cost.Epsilon
		spent.Delta += op.Cost.Delta
	}
	if got := l.Spent(); got != spent {
		t.Fatalf("Spent = %s, want %s", got, spent)
	}
	if got := l.OpCount(); got != n {
		t.Fatalf("OpCount = %d, want %d", got, n)
	}
}

// TestGoldenWALFixtures pins the WAL bytes: a WAL holding header + 3
// ops + a torn 4th frame. The live code must write the same bytes, open
// the fixture to the same state, and cut the torn tail at the same
// offset. The WAL/.snap pair an older build left one compaction later
// must refuse to open and stay byte for byte as it was.
func TestGoldenWALFixtures(t *testing.T) {
	spend := func(d *DurableLedger, ops []Op) {
		t.Helper()
		for _, op := range ops {
			if err := d.Spend(op.Label, op.Cost); err != nil {
				t.Fatalf("Spend(%q): %v", op.Label, err)
			}
		}
	}

	// Re-encode: the live code writes header + 3 ops byte-identically.
	dir := t.TempDir()
	path := filepath.Join(dir, "live.wal")
	d := mustOpen(t, goldenBudget, path, DurableOptions{})
	spend(d, goldenTrail[:3])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	clean := readFile(t, path)
	op4 := goldenTrail[3]
	frame4 := Frame(nil, AppendOpPayload(nil, 4, op4.Cost, []byte(op4.Label)))
	torn := golden(t, "torn.wal", append(clean[:len(clean):len(clean)], frame4[:len(frame4)-5]...))

	// The fixture opens to 3 ops and loses exactly its torn tail.
	path = filepath.Join(dir, "fixture.wal")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	d = mustOpen(t, goldenBudget, path, DurableOptions{})
	checkTrail(t, d, 3)
	if got := readFile(t, path); !bytes.Equal(got, clean) {
		t.Fatalf("torn tail: file is %d bytes after open, want the %d-byte clean prefix", len(got), len(clean))
	}
	if st := d.Status(); st.WALBytes != int64(len(clean)) || st.WALRecords != 3 || st.ReplayedOps != 3 {
		t.Fatalf("Status after replay = %+v, want %d bytes / 3 records / 3 replayed", st, len(clean))
	}

	// The 4th spend lands where the torn frame was cut.
	spend(d, goldenTrail[3:])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, path), append(clean[:len(clean):len(clean)], frame4...); !bytes.Equal(got, want) {
		t.Fatalf("after the 4th spend the WAL is %d bytes, want the %d-byte clean prefix + op 4", len(got), len(want))
	}

	// The legacy compacted pair is a format break: it refuses to open and
	// neither file is touched.
	legacy := t.TempDir()
	path = filepath.Join(legacy, "compacted.wal")
	files := map[string][]byte{}
	for _, name := range []string{"compacted.wal", "compacted.wal.snap"} {
		files[name] = readFile(t, filepath.Join("testdata", name))
		if err := os.WriteFile(filepath.Join(legacy, name), files[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := OpenDurableLedger(goldenBudget, path, DurableOptions{}); !errors.Is(err, ErrLedgerCorrupt) {
		if err == nil {
			d.Close()
		}
		t.Fatalf("open beside a legacy .snap: got %v, want ErrLedgerCorrupt", err)
	}
	for name, want := range files {
		if got := readFile(t, filepath.Join(legacy, name)); !bytes.Equal(got, want) {
			t.Fatalf("%s changed on the refused open: %d bytes, want %d", name, len(got), len(want))
		}
	}
}
