package hierarchy

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/rng"
)

// streamBisector returns a fresh bisector of the given kind; private
// bisectors are seeded identically on every call so paired builds consume
// the same cut stream.
func streamBisector(t testing.TB, private bool, seed uint64) partition.Bisector {
	t.Helper()
	if !private {
		return partition.BalancedBisector{}
	}
	bis, err := partition.NewExpMechBisector(0.4, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return bis
}

// TestBuildFromEdgesMatchesInMemory holds a build over every kind of edge
// source to the Graph the test holds: a graph cursor, a slice source in
// generation order, TSV and binary dumps, the synthetic Zipf stream, and
// narrow chunks with undeclared sides. For Workers ∈ {1, 4} and both
// private and non-private bisectors, every tree must match the graph's
// per-group degree sums, its summary and a naive recount of every cell
// matrix (validateAgainst) and be bit-identical to the graph cursor's
// tree — permutations, bounds, per-group degree sums, every cell matrix,
// the private-cut count, the dataset summary and the binary encoding.
func TestBuildFromEdgesMatchesInMemory(t *testing.T) {
	t.Parallel()
	cfg := datagen.Config{
		Name: "stream-golden", NumLeft: 400, NumRight: 650, NumEdges: 5200,
		LeftZipf: 1.9, RightZipf: 2.8, Seed: 17,
	}
	g, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	list, nl, nr, err := datagen.EdgeList(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The TSV dump declares no sides: the test relies on both last ids
	// having an edge, so the observed sides are the declared ones.
	var tsv, bin bytes.Buffer
	if err := bipartite.SaveTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	if err := bipartite.EncodeBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		open func() (bipartite.EdgeSource, error)
	}{
		{"graph", func() (bipartite.EdgeSource, error) { return bipartite.NewGraphSource(g), nil }},
		{"slice", func() (bipartite.EdgeSource, error) { return bipartite.NewSliceSource(nl, nr, list), nil }},
		{"tsv", func() (bipartite.EdgeSource, error) {
			return bipartite.NewTSVEdgeSource(bytes.NewReader(tsv.Bytes()))
		}},
		{"binary", func() (bipartite.EdgeSource, error) {
			return bipartite.NewBinaryEdgeSource(bytes.NewReader(bin.Bytes()))
		}},
		{"zipf-stream", func() (bipartite.EdgeSource, error) { return datagen.NewStream(cfg) }},
		{"narrow-chunks", func() (bipartite.EdgeSource, error) {
			return &narrowChunkSource{inner: bipartite.NewGraphSource(g), chunkCap: 97, hideSides: true}, nil
		}},
	}
	for _, workers := range []int{1, 4} {
		for _, private := range []bool{false, true} {
			var want *Tree
			var wantEnc []byte
			for _, source := range sources {
				name := fmt.Sprintf("%s workers=%d private=%v", source.name, workers, private)
				src, err := source.open()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				tree, err := BuildFromEdges(src, Options{Rounds: 7, Bisector: streamBisector(t, private, 99), Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := validateAgainst(tree, g); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var enc bytes.Buffer
				if err := tree.EncodeBinary(&enc); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want, wantEnc = tree, enc.Bytes()
					continue
				}
				assertTreesIdentical(t, name, want, tree)
				if !bytes.Equal(enc.Bytes(), wantEnc) {
					t.Fatalf("%s: encoded tree differs from the graph cursor's", name)
				}
			}
		}
	}
}

// TestBuilderReuseStreamed: one retained Builder across streamed builds of
// different sizes produces trees bit-identical to throwaway builds.
func TestBuilderReuseStreamed(t *testing.T) {
	t.Parallel()
	b := NewBuilder()
	defer b.Close()
	for i, shape := range []struct{ nl, nr, edges int }{
		{300, 200, 4000}, {80, 120, 900}, {500, 500, 8000},
	} {
		g := randomGraph(t, shape.nl, shape.nr, shape.edges, uint64(40+i))
		opts := Options{Rounds: 5, Bisector: streamBisector(t, true, uint64(7+i)), Workers: 1 + i}
		want, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{
			Rounds: 5, Bisector: streamBisector(t, true, uint64(7+i)), Workers: 1 + i,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.BuildFromEdges(bipartite.NewGraphSource(g), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertTreesIdentical(t, fmt.Sprintf("reused build %d", i), want, got)
	}
}

// unstableSource yields a different edge multiset on its second pass —
// the two-pass cross-check must reject it.
type unstableSource struct {
	first, replay []bipartite.Edge
	passes, next  int
}

func (s *unstableSource) edges() []bipartite.Edge {
	if s.passes > 1 {
		return s.replay
	}
	return s.first
}

func (s *unstableSource) NextChunk(dst []bipartite.Edge) (int, error) {
	edges := s.edges()
	if s.next >= len(edges) {
		return 0, io.EOF
	}
	n := copy(dst, edges[s.next:])
	s.next += n
	return n, nil
}

func (s *unstableSource) Reset() error { s.passes++; s.next = 0; return nil }

func (s *unstableSource) Sides() (int32, int32, bool) { return 4, 3, true }

func TestBuildFromEdgesRejectsUnstableSource(t *testing.T) {
	t.Parallel()
	first := []bipartite.Edge{
		{Left: 0, Right: 0}, {Left: 1, Right: 1}, {Left: 2, Right: 2}, {Left: 3, Right: 0},
	}
	// Two rounds over 4 × 3 nodes leave every node of a side but one pair
	// of the right side in a finest group of its own, so moving one
	// endpoint of one edge changes a row sum or a column sum.
	for name, replay := range map[string][]bipartite.Edge{
		"an edge vanishes":               first[:3],
		"an edge moves to another left":  {{Left: 0, Right: 0}, {Left: 1, Right: 1}, {Left: 2, Right: 2}, {Left: 2, Right: 0}},
		"an edge moves to another right": {{Left: 0, Right: 0}, {Left: 1, Right: 1}, {Left: 2, Right: 2}, {Left: 3, Right: 1}},
	} {
		for _, workers := range []int{1, 3} {
			_, err := BuildFromEdges(&unstableSource{first: first, replay: replay},
				Options{Rounds: 2, Bisector: partition.BalancedBisector{}, Workers: workers})
			if err == nil {
				t.Fatalf("%s (workers=%d): want error for a source whose replay differs", name, workers)
			}
			if !strings.Contains(err.Error(), "source changed between passes") {
				t.Fatalf("%s (workers=%d): unexpected error: %v", name, workers, err)
			}
		}
	}
	// The same edges in another order are the same multiset: no error.
	reordered := []bipartite.Edge{first[3], first[1], first[0], first[2]}
	if _, err := BuildFromEdges(&unstableSource{first: first, replay: reordered},
		Options{Rounds: 2, Bisector: partition.BalancedBisector{}}); err != nil {
		t.Fatalf("a replay in another order was rejected: %v", err)
	}
}

// TestBuildFromEdgesRejectsSwappedEdges: a replay in which two edges
// trade endpoints — (0,0),(1,1) become (0,1),(1,0), across four distinct
// finest groups — keeps every degree and so every row and column sum of
// the deepest matrix, yet moves two records into other cells. The edge
// checksum both passes sum must refuse it, serial and sharded.
func TestBuildFromEdgesRejectsSwappedEdges(t *testing.T) {
	t.Parallel()
	first := []bipartite.Edge{
		{Left: 0, Right: 0}, {Left: 1, Right: 1}, {Left: 2, Right: 2}, {Left: 3, Right: 0},
	}
	swapped := []bipartite.Edge{
		{Left: 0, Right: 1}, {Left: 1, Right: 0}, {Left: 2, Right: 2}, {Left: 3, Right: 0},
	}
	for _, workers := range []int{1, 3} {
		_, err := BuildFromEdges(&unstableSource{first: first, replay: swapped},
			Options{Rounds: 2, Bisector: partition.BalancedBisector{}, Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "source changed between passes") {
			t.Fatalf("workers=%d: want a refusal of the swapped replay, got %v", workers, err)
		}
	}
}

// TestBuildFromEdgesNilAndBadOptions checks the option validation.
func TestBuildFromEdgesNilAndBadOptions(t *testing.T) {
	t.Parallel()
	if _, err := BuildFromEdges(nil, Options{Rounds: 2, Bisector: partition.BalancedBisector{}}); err != ErrNilSource {
		t.Fatalf("nil source: got %v, want ErrNilSource", err)
	}
	src := bipartite.NewSliceSource(2, 2, []bipartite.Edge{{Left: 0, Right: 0}})
	if _, err := BuildFromEdges(src, Options{Rounds: 2}); err != ErrNilBisector {
		t.Fatalf("nil bisector: got %v, want ErrNilBisector", err)
	}
	if _, err := BuildFromEdges(src, Options{Rounds: 0, Bisector: partition.BalancedBisector{}}); err == nil {
		t.Fatal("want rounds validation error")
	}
}

// BenchmarkStreamedBuild pins the memory envelope: allocs/op must stay
// flat as the edge count scales 10× with the sides fixed, because the
// build holds O(chunk + sides + 4^rounds) — never the edges.
func BenchmarkStreamedBuild(b *testing.B) {
	for _, edges := range []int{30000, 300000} {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			cfg := datagen.Config{
				Name: "bench", NumLeft: 1500, NumRight: 1500, NumEdges: edges,
				LeftZipf: 1.9, RightZipf: 2.8, Seed: 3,
			}
			list, nl, nr, err := datagen.EdgeList(cfg)
			if err != nil {
				b.Fatal(err)
			}
			src := bipartite.NewSliceSource(nl, nr, list)
			opts := Options{Rounds: 8, Bisector: partition.BalancedBisector{}}
			bld := NewBuilder()
			defer bld.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bld.BuildFromEdges(src, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// narrowChunkSource wraps a source to hand out at most chunkCap edges per
// NextChunk, forcing multi-chunk traffic through the degree-pass pipeline
// regardless of the consumer's buffer size. It hides the declared sides
// when hideSides is set, exercising the grow-by-observed-id path.
type narrowChunkSource struct {
	inner     bipartite.EdgeSource
	chunkCap  int
	hideSides bool
}

func (s *narrowChunkSource) NextChunk(dst []bipartite.Edge) (int, error) {
	if len(dst) > s.chunkCap {
		dst = dst[:s.chunkCap]
	}
	return s.inner.NextChunk(dst)
}

func (s *narrowChunkSource) Reset() error { return s.inner.Reset() }

func (s *narrowChunkSource) Sides() (int32, int32, bool) {
	if s.hideSides {
		return 0, 0, false
	}
	return s.inner.Sides()
}

// TestScanStreamDegreesParallelMatchesSerial pins the parallel degree
// pass (satellite of the streamed ingest pipeline): across worker
// counts and chunk sizes, the merged per-worker arrays and edge checksum
// must equal the serial sweep exactly. Undeclared sides route to the serial fallback
// (the workers× array blowup cannot be bounded without declared sides)
// and must of course agree too.
func TestScanStreamDegreesParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	g := randomGraph(t, 230, 170, 6100, 33)
	for _, hideSides := range []bool{false, true} {
		for _, chunkCap := range []int{17, 256, 8192} {
			mk := func() bipartite.EdgeSource {
				return &narrowChunkSource{inner: bipartite.NewGraphSource(g), chunkCap: chunkCap, hideSides: hideSides}
			}
			wantL, wantR, wantSum, err := scanStreamDegrees(mk(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				gotL, gotR, gotSum, err := scanStreamDegrees(mk(), workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !slicesEqualInt64(gotL, wantL) || !slicesEqualInt64(gotR, wantR) || gotSum != wantSum {
					t.Fatalf("hideSides=%v chunk=%d workers=%d: parallel degree pass diverges from serial",
						hideSides, chunkCap, workers)
				}
			}
		}
	}

	// Negative ids must be rejected on the parallel path too.
	bad := bipartite.NewSliceSource(4, 4, []bipartite.Edge{{Left: 1, Right: 1}, {Left: -1, Right: 2}})
	if _, _, _, err := scanStreamDegrees(&narrowChunkSource{inner: bad, chunkCap: 1}, 4); err == nil {
		t.Fatal("parallel degree pass accepted a negative node id")
	}
}

func slicesEqualInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
