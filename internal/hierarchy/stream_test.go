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

// TestBuildFromEdgesMatchesInMemory is the golden test for the streamed
// build: over both a graph-edge cursor and the synthetic Zipf stream, for
// Workers ∈ {1, 4} and both private and non-private bisectors, the
// two-pass BuildFromEdges tree must be bit-identical to Build on the
// materialized graph — permutations, bounds, every cell matrix, degree
// prefix sums and the private-cut count.
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
	for _, workers := range []int{1, 4} {
		for _, private := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d private=%v", workers, private)
			opts := func() Options {
				return Options{Rounds: 7, Bisector: streamBisector(t, private, 99), Workers: workers}
			}
			want, err := Build(g, opts())
			if err != nil {
				t.Fatalf("%s: in-memory build: %v", name, err)
			}

			fromGraph, err := BuildFromEdges(bipartite.NewGraphSource(g), opts())
			if err != nil {
				t.Fatalf("%s: streamed build (graph cursor): %v", name, err)
			}
			assertTreesIdentical(t, name+" graph-cursor", want, fromGraph)

			zs, err := datagen.NewStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fromZipf, err := BuildFromEdges(zs, opts())
			if err != nil {
				t.Fatalf("%s: streamed build (zipf stream): %v", name, err)
			}
			assertTreesIdentical(t, name+" zipf-stream", want, fromZipf)

			if err := fromGraph.Validate(); err != nil {
				t.Fatalf("%s: streamed tree fails Validate: %v", name, err)
			}
			if fromGraph.Graph() != nil {
				t.Fatalf("%s: streamed tree unexpectedly carries a graph", name)
			}
			if fromGraph.NumEdges() != g.NumEdges() {
				t.Fatalf("%s: NumEdges = %d, want %d", name, fromGraph.NumEdges(), g.NumEdges())
			}
			if got, want := fromGraph.DatasetStats(), bipartite.ComputeStats(g); got != want {
				t.Fatalf("%s: DatasetStats diverge:\n  streamed %+v\n  graph    %+v", name, got, want)
			}

			// The serialized grouping must agree byte for byte too.
			var a, b bytes.Buffer
			if err := want.EncodeBinary(&a); err != nil {
				t.Fatal(err)
			}
			if err := fromGraph.EncodeBinary(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("%s: encoded trees differ", name)
			}
		}
	}
}

// TestBuildFromEdgesFileSources runs the golden comparison through the
// actual file codecs: a TSV dump and a binary dump of the same graph must
// stream into trees bit-identical to the in-memory build.
func TestBuildFromEdgesFileSources(t *testing.T) {
	t.Parallel()
	g := randomGraph(t, 180, 260, 3100, 21)
	opts := Options{Rounds: 6, Bisector: partition.BalancedBisector{}}
	want, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	var tsv bytes.Buffer
	if err := bipartite.SaveTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	tsvSrc, err := bipartite.NewTSVEdgeSource(bytes.NewReader(tsv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromTSV, err := BuildFromEdges(tsvSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertTreesIdentical(t, "tsv", want, fromTSV)

	var bin bytes.Buffer
	if err := bipartite.EncodeBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	binSrc, err := bipartite.NewBinaryEdgeSource(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := BuildFromEdges(binSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertTreesIdentical(t, "binary", want, fromBin)
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

// TestBuildFromEdgesNilAndBadOptions mirrors Build's option validation.
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
// counts and chunk sizes, the merged per-worker arrays must equal the
// serial sweep exactly. Undeclared sides route to the serial fallback
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
			wantL, wantR, err := scanStreamDegrees(mk(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				gotL, gotR, err := scanStreamDegrees(mk(), workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !slicesEqualInt64(gotL, wantL) || !slicesEqualInt64(gotR, wantR) {
					t.Fatalf("hideSides=%v chunk=%d workers=%d: parallel degree pass diverges from serial",
						hideSides, chunkCap, workers)
				}
			}
		}
	}

	// Negative ids must be rejected on the parallel path too.
	bad := bipartite.NewSliceSource(4, 4, []bipartite.Edge{{Left: 1, Right: 1}, {Left: -1, Right: 2}})
	if _, _, err := scanStreamDegrees(&narrowChunkSource{inner: bad, chunkCap: 1}, 4); err == nil {
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
