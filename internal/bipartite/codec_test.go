package bipartite

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBinaryRoundTrip(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, got)
}

func TestBinaryRoundTripWithNames(t *testing.T) {
	t.Parallel()
	b := NewBuilder(0)
	b.AddAssociation("alice", "insulin")
	b.AddAssociation("bob", "aspirin")
	b.AddAssociation("bob", "insulin")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, got)
	if got.LeftName(1) != "bob" || got.RightName(1) != "aspirin" {
		t.Errorf("names lost in round trip: %q %q", got.LeftName(1), got.RightName(1))
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	t.Parallel()
	g, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 0 || got.NumLeft() != 0 || got.NumRight() != 0 {
		t.Error("empty graph did not round trip")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	t.Parallel()
	_, err := DecodeBinary(strings.NewReader("NOPE...."))
	if !errors.Is(err, ErrBadFormat) {
		t.Errorf("error = %v, want ErrBadFormat", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail cleanly, never panic.
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("decode of %d-byte prefix unexpectedly succeeded", cut)
		}
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	buf.WriteString(BinaryMagic)
	buf.Write([]byte{0x00})                                           // flags
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // absurd numLeft
	if _, err := DecodeBinary(&buf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("error = %v, want ErrBadFormat", err)
	}
}

func TestTSVRoundTripIDs(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	var buf bytes.Buffer
	if err := SaveTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, got)
}

func TestTSVRoundTripNames(t *testing.T) {
	t.Parallel()
	b := NewBuilder(0)
	b.AddAssociation("alice", "paper one")
	b.AddAssociation("bob", "paper two")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 2 || !got.HasNames() {
		t.Fatalf("tsv with names loaded wrong: edges=%d names=%v", got.NumEdges(), got.HasNames())
	}
}

func TestLoadTSVSkipsCommentsAndBlanks(t *testing.T) {
	t.Parallel()
	in := "# header\n\n0\t1\n\n# trailing\n1\t0\n"
	g, err := LoadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestLoadTSVBadFieldCount(t *testing.T) {
	t.Parallel()
	if _, err := LoadTSV(strings.NewReader("a\tb\tc\n")); err == nil {
		t.Error("LoadTSV accepted a 3-field line")
	}
}

func TestLoadDBLPXML(t *testing.T) {
	t.Parallel()
	const doc = `<?xml version="1.0"?>
<dblp>
 <article key="journals/x/1"><author>Alice A.</author><author>Bob B.</author><title>T1</title></article>
 <inproceedings key="conf/y/2"><author>Alice A.</author><title>T2</title></inproceedings>
 <www key="homepages/a"><author>Alice A.</author></www>
 <book key="books/z/3"><editor>Carol C.</editor><title>T3</title></book>
</dblp>`
	g, err := LoadDBLPXML(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	// Alice->1, Bob->1, Alice->2, Carol->3. The www entry is skipped.
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.NumLeft() != 3 {
		t.Errorf("NumLeft = %d, want 3 authors", g.NumLeft())
	}
	if g.NumRight() != 3 {
		t.Errorf("NumRight = %d, want 3 publications", g.NumRight())
	}
}

func TestLoadDBLPXMLEmpty(t *testing.T) {
	t.Parallel()
	if _, err := LoadDBLPXML(strings.NewReader("<dblp></dblp>")); err == nil {
		t.Error("empty dblp xml should error")
	}
}

func TestLoadDBLPXMLMalformed(t *testing.T) {
	t.Parallel()
	if _, err := LoadDBLPXML(strings.NewReader("<dblp><article>")); err == nil {
		t.Error("malformed xml should error")
	}
}

// TestQuickBinaryRoundTrip round-trips random graphs through the binary
// codec.
func TestQuickBinaryRoundTrip(t *testing.T) {
	t.Parallel()
	src := rng.New(77)
	f := func(seed uint64) bool {
		r := src.Split(seed)
		nl := int32(r.Intn(30) + 1)
		nr := int32(r.Intn(30) + 1)
		b := NewBuilder(0)
		b.SetNumLeft(nl)
		b.SetNumRight(nr)
		for i := 0; i < r.Intn(300); i++ {
			b.AddEdge(int32(r.Intn(int(nl))), int32(r.Intn(int(nr))))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, g); err != nil {
			return false
		}
		got, err := DecodeBinary(&buf)
		if err != nil {
			return false
		}
		return graphsEqual(g, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func assertGraphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if !graphsEqual(want, got) {
		t.Fatalf("graphs differ:\nwant |L|=%d |R|=%d |E|=%d\ngot  |L|=%d |R|=%d |E|=%d",
			want.NumLeft(), want.NumRight(), want.NumEdges(),
			got.NumLeft(), got.NumRight(), got.NumEdges())
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.NumLeft() != b.NumLeft() || a.NumRight() != b.NumRight() || a.NumEdges() != b.NumEdges() {
		return false
	}
	equal := true
	a.ForEachEdge(func(l, r int32) bool {
		if !b.HasEdge(l, r) {
			equal = false
			return false
		}
		return true
	})
	return equal
}
