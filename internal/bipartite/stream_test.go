package bipartite

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"
)

// collectEdges drains a source (after a Reset) and returns its edges.
func collectEdges(t *testing.T, src EdgeSource) []Edge {
	t.Helper()
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	edges, err := ReadAllEdges(src)
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

// sortEdges orders edges left-major for set comparison.
func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Left != edges[j].Left {
			return edges[i].Left < edges[j].Left
		}
		return edges[i].Right < edges[j].Right
	})
}

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(5, 7, []Edge{{0, 0}, {0, 6}, {1, 2}, {2, 3}, {2, 5}, {4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGraphSourceStreamsAllEdges: the graph cursor yields exactly the
// graph's edges, in left-major order, across chunk sizes that do and do
// not divide the edge count, and replays identically after Reset.
func TestGraphSourceStreamsAllEdges(t *testing.T) {
	g := testGraph(t)
	src := NewGraphSource(g)
	for _, chunk := range []int{1, 2, 5, 100} {
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		var got []Edge
		buf := make([]Edge, chunk)
		for {
			n, err := src.NextChunk(buf)
			if err != nil {
				break
			}
			got = append(got, buf[:n]...)
		}
		want := g.Edges()
		if len(got) != len(want) {
			t.Fatalf("chunk %d: got %d edges, want %d", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: edge %d = %v, want %v", chunk, i, got[i], want[i])
			}
		}
	}
	nl, nr, known := src.Sides()
	if !known || int(nl) != g.NumLeft() || int(nr) != g.NumRight() {
		t.Fatalf("Sides = %d,%d,%v, want %d,%d,true", nl, nr, known, g.NumLeft(), g.NumRight())
	}
}

// TestSliceSourceRoundTrip: cursor semantics over a shared slice.
func TestSliceSourceRoundTrip(t *testing.T) {
	edges := []Edge{{3, 1}, {0, 2}, {3, 0}}
	src := NewSliceSource(10, 10, edges)
	got := collectEdges(t, src)
	if len(got) != len(edges) {
		t.Fatalf("got %d edges, want %d", len(got), len(edges))
	}
	for i := range got {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
	again := collectEdges(t, src)
	if len(again) != len(edges) {
		t.Fatalf("replay after Reset lost edges: %d vs %d", len(again), len(edges))
	}
	nl, nr, known := src.Sides()
	if !known || nl != 10 || nr != 10 {
		t.Fatalf("Sides = %d,%d,%v", nl, nr, known)
	}
}

// TestBinaryEdgeSourceMatchesDecode: the delta-walking source yields the
// same edge set DecodeBinary builds, for graphs with and without names.
func TestBinaryEdgeSourceMatchesDecode(t *testing.T) {
	plain := testGraph(t)

	nb := NewBuilder(0)
	nb.AddAssociation("alice", "insulin")
	nb.AddAssociation("bob", "insulin")
	nb.AddAssociation("alice", "statin")
	named, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}

	for name, g := range map[string]*Graph{"plain": plain, "named": named} {
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		src, err := NewBinaryEdgeSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := collectEdges(t, src)
		want := g.Edges()
		sortEdges(got)
		if len(got) != len(want) {
			t.Fatalf("%s: got %d edges, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: edge %d = %v, want %v", name, i, got[i], want[i])
			}
		}
		nl, nr, known := src.Sides()
		if !known || int(nl) != g.NumLeft() || int(nr) != g.NumRight() {
			t.Fatalf("%s: Sides = %d,%d,%v, want %d,%d", name, nl, nr, known, g.NumLeft(), g.NumRight())
		}
		// Replay must be identical.
		again := collectEdges(t, src)
		sortEdges(again)
		for i := range again {
			if again[i] != got[i] {
				t.Fatalf("%s: replay diverged at %d", name, i)
			}
		}
	}
}

// TestBinaryEdgeSourceRejectsCorruption: truncated streams error instead
// of yielding phantom edges.
func TestBinaryEdgeSourceRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := NewBinaryEdgeSource(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("want error for bad magic")
	}
	trunc := valid[:len(valid)-2]
	src, err := NewBinaryEdgeSource(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAllEdges(src); err == nil {
		t.Fatal("want error for truncated edge section")
	}
}

// referenceBinaryDrain is the byte-at-a-time decoder BinaryEdgeSource was
// before it moved to slice decoding — binary.ReadUvarint through the
// bufio.Reader's io.ByteReader — kept here, and only here, as the
// reference: it returns the edges delivered before the first error and
// that error (nil at a clean end of the edge section).
func referenceBinaryDrain(data []byte) ([]Edge, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadFormat, err)
	}
	if string(magic[:]) != BinaryMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic[:])
	}
	if _, err := binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("%w: flags: %v", ErrBadFormat, err)
	}
	numLeft, err := readCount(br, "numLeft")
	if err != nil {
		return nil, err
	}
	numRight, err := readCount(br, "numRight")
	if err != nil {
		return nil, err
	}
	var edges []Edge
	for l := int64(0); l < numLeft; l++ {
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return edges, fmt.Errorf("%w: degree of left %d: %v", ErrBadFormat, l, err)
		}
		if deg > uint64(numRight) {
			return edges, fmt.Errorf("%w: degree %d exceeds right side %d", ErrBadFormat, deg, numRight)
		}
		prev := int64(-1)
		for ; deg > 0; deg-- {
			delta, err := binary.ReadUvarint(br)
			if err != nil {
				return edges, fmt.Errorf("%w: neighbor of left %d: %v", ErrBadFormat, l, err)
			}
			r := int64(delta)
			if prev >= 0 {
				r = prev + 1 + int64(delta)
			}
			if r >= numRight {
				return edges, fmt.Errorf("%w: neighbor %d out of range", ErrBadFormat, r)
			}
			edges = append(edges, Edge{Left: int32(l), Right: int32(r)})
			prev = r
		}
	}
	return edges, nil
}

// drainBinarySource reads data through BinaryEdgeSource in chunks of the
// given size and returns every edge delivered — including the partial
// chunk returned alongside an error — and the first error (nil at EOF).
func drainBinarySource(rs io.ReadSeeker, chunk int) ([]Edge, error) {
	src, err := NewBinaryEdgeSource(rs)
	if err != nil {
		return nil, err
	}
	var edges []Edge
	buf := make([]Edge, chunk)
	for {
		n, err := src.NextChunk(buf)
		edges = append(edges, buf[:n]...)
		if err == io.EOF {
			return edges, nil
		}
		if err != nil {
			return edges, err
		}
	}
}

// skewedGraph draws edges whose endpoints are n·u^skew for uniform u:
// skew 1 scatters them (sparse rows over a wide right side, so the
// encoding is dominated by two- and three-byte varints), a larger skew
// piles them onto the low ids the way a power-law dataset does (long
// rows, mostly one-byte deltas).
func skewedGraph(t testing.TB, numLeft, numRight int32, edges int, skew float64) *Graph {
	t.Helper()
	b := NewBuilder(edges)
	b.SetNumLeft(numLeft)
	b.SetNumRight(numRight)
	x := uint64(99)
	next := func(n int32) int32 {
		x = x*6364136223846793005 + 1442695040888963407
		u := float64(x>>11) / (1 << 53)
		return int32(float64(n) * math.Pow(u, skew))
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(next(numLeft), next(numRight))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameDrain asserts the slice decoder and the reference delivered the
// same edges and failed (or not) with the same error, text included.
func sameDrain(t *testing.T, label string, got []Edge, gotErr error, want []Edge, wantErr error) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: delivered %d edges (err %v), reference %d (err %v)", label, len(got), gotErr, len(want), wantErr)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d = %v, reference %v", label, i, got[i], want[i])
		}
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if wantErr != nil && (!errors.Is(gotErr, ErrBadFormat) || gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %q, reference %q", label, gotErr, wantErr)
	}
}

// TestBinaryEdgeSourceTruncationMatchesReference cuts an encoded graph at
// every byte offset, and overwrites it with varint-overflowing runs at a
// spread of offsets, and holds the slice decoder to the byte-at-a-time
// reference: the same edges delivered before the failure, the same
// ErrBadFormat error.
func TestBinaryEdgeSourceTruncationMatchesReference(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, skewedGraph(t, 900, 120_000, 4000, 1.5)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) < 2*4096 {
		t.Fatalf("encoding is %d bytes; want several reader windows", len(data))
	}
	for cut := 0; cut <= len(data); cut++ {
		want, wantErr := referenceBinaryDrain(data[:cut])
		got, gotErr := drainBinarySource(bytes.NewReader(data[:cut]), 61)
		sameDrain(t, fmt.Sprintf("cut at %d", cut), got, gotErr, want, wantErr)
	}
	for at := 8; at+10 <= len(data); at += 97 {
		bad := append([]byte(nil), data...)
		for i := 0; i < 10; i++ {
			bad[at+i] = 0xff
		}
		want, wantErr := referenceBinaryDrain(bad)
		got, gotErr := drainBinarySource(bytes.NewReader(bad), 61)
		sameDrain(t, fmt.Sprintf("0xff run at %d", at), got, gotErr, want, wantErr)
	}
}

// shortReadSeeker hands out at most max bytes per Read, so the
// bufio.Reader above it refills — and the decode window ends — every few
// bytes.
type shortReadSeeker struct {
	r   *bytes.Reader
	max int
}

func (s *shortReadSeeker) Read(p []byte) (int, error) {
	if len(p) > s.max {
		p = p[:s.max]
	}
	return s.r.Read(p)
}

func (s *shortReadSeeker) Seek(off int64, whence int) (int64, error) { return s.r.Seek(off, whence) }

// TestBinaryEdgeSourceVarintsStraddleRefills decodes through readers that
// deliver 1 to 7 bytes per refill, so multi-byte varints straddle the
// window boundary at every alignment; the edges must still be the
// graph's, on the first pass and on the replay after Reset.
func TestBinaryEdgeSourceVarintsStraddleRefills(t *testing.T) {
	t.Parallel()
	g := skewedGraph(t, 300, 2_000_000, 1500, 1)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	want := g.Edges()
	for _, max := range []int{1, 2, 3, 5, 7, 4096} {
		src, err := NewBinaryEdgeSource(&shortReadSeeker{r: bytes.NewReader(buf.Bytes()), max: max})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got := collectEdges(t, src)
			if len(got) != len(want) {
				t.Fatalf("max read %d pass %d: %d edges, want %d", max, pass, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("max read %d pass %d: edge %d = %v, want %v", max, pass, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkBinaryEdgeSourceDrain times one decode pass over an encoded
// heavy-tailed graph (about 1.3 bytes per varint, like the 2 M-edge
// ingest benchmark's upload), the unit the streamed build pays twice per
// ingest.
func BenchmarkBinaryEdgeSourceDrain(b *testing.B) {
	g := skewedGraph(b, 100_000, 175_000, 600_000, 5)
	var enc bytes.Buffer
	if err := EncodeBinary(&enc, g); err != nil {
		b.Fatal(err)
	}
	src, err := NewBinaryEdgeSource(bytes.NewReader(enc.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]Edge, DefaultChunkEdges)
	b.SetBytes(int64(enc.Len()))
	b.ResetTimer()
	var edges int64
	for i := 0; i < b.N; i++ {
		if err := src.Reset(); err != nil {
			b.Fatal(err)
		}
		err := ForEachChunk(src, buf, func(chunk []Edge) error {
			edges += int64(len(chunk))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
}

// TestTSVEdgeSourceMatchesLoadTSV: for both id-mode and name-mode files
// (with and without headers), streaming + dedup-free replay agrees with
// LoadTSV's graph.
func TestTSVEdgeSourceMatchesLoadTSV(t *testing.T) {
	cases := map[string]string{
		"ids-sniffed":    "0\t1\n2\t3\n1\t1\n",
		"ids-header":     tsvHeaderPrefix + tsvModeIDs + "\n0\t1\n2\t3\n",
		"names-sniffed":  "alice\tinsulin\nbob\tinsulin\nalice\tstatin\n",
		"names-header":   tsvHeaderPrefix + tsvModeNames + "\n10\t7\n3\t7\n",
		"comments-blank": "# leading comment\n\n0\t1\n# mid comment\n2\t0\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			g, err := LoadTSV(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewTSVEdgeSource(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			got := collectEdges(t, src)
			sortEdges(got)
			want := g.Edges()
			if len(got) != len(want) {
				t.Fatalf("got %d edges, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("edge %d = %v, want %v", i, got[i], want[i])
				}
			}
			// After a full pass, sides must agree with the loaded graph.
			nl, nr, known := src.Sides()
			if !known || int(nl) != g.NumLeft() || int(nr) != g.NumRight() {
				t.Fatalf("Sides = %d,%d,%v, want %d,%d,true", nl, nr, known, g.NumLeft(), g.NumRight())
			}
			// Replay: intern tables persist, ids stay stable.
			again := collectEdges(t, src)
			sortEdges(again)
			for i := range again {
				if again[i] != got[i] {
					t.Fatalf("replay diverged at edge %d", i)
				}
			}
		})
	}
}

// TestTSVEdgeSourceErrors: malformed lines and forced-id violations carry
// line numbers.
func TestTSVEdgeSourceErrors(t *testing.T) {
	if _, err := NewTSVEdgeSource(strings.NewReader("a\tb\tc\n")); err == nil {
		t.Fatal("want construction error for 3-field line (sniff pass)")
	}
	src, err := NewTSVEdgeSource(strings.NewReader(tsvHeaderPrefix + tsvModeIDs + "\n1\t2\nalice\t2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAllEdges(src); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want a line-3 error for non-numeric field under ids header, got %v", err)
	}
}

// FuzzTSVEdgeSource cross-checks the chunked reader against LoadTSV on
// arbitrary text: both must accept or both reject, and on acceptance the
// deduplicated streamed edges must equal the loaded graph's (LoadTSV's
// Builder deduplicates; the source contract says streams carry no
// duplicates, so files with repeated lines are deduped here before the
// comparison).
func FuzzTSVEdgeSource(f *testing.F) {
	f.Add("0\t1\n1\t0\n")
	f.Add("alice\tinsulin\n")
	f.Add("# comment\n\n3\t4\n")
	f.Add(tsvHeaderPrefix + tsvModeNames + "\n1\t2\n")
	f.Add(tsvHeaderPrefix + tsvModeIDs + "\n1\t2\n")
	f.Add("01\t1\n")
	f.Add("+5\t7\n")
	f.Add("bad line\n")
	f.Fuzz(func(t *testing.T, data string) {
		g, loadErr := LoadTSV(strings.NewReader(data))
		src, srcErr := NewTSVEdgeSource(strings.NewReader(data))
		var edges []Edge
		if srcErr == nil {
			if err := src.Reset(); err != nil {
				t.Fatal(err)
			}
			edges, srcErr = ReadAllEdges(src)
		}
		if (loadErr == nil) != (srcErr == nil) {
			t.Fatalf("loader/source disagree: LoadTSV err=%v, source err=%v", loadErr, srcErr)
		}
		if loadErr != nil {
			return
		}
		seen := make(map[Edge]bool, len(edges))
		deduped := edges[:0]
		for _, e := range edges {
			if !seen[e] {
				seen[e] = true
				deduped = append(deduped, e)
			}
		}
		sortEdges(deduped)
		want := g.Edges()
		if len(deduped) != len(want) {
			t.Fatalf("streamed %d distinct edges, loaded graph has %d", len(deduped), len(want))
		}
		for i := range deduped {
			if deduped[i] != want[i] {
				t.Fatalf("edge %d: streamed %v, loaded %v", i, deduped[i], want[i])
			}
		}
	})
}
