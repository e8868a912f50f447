package hierarchy

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/partition"
	"repro/internal/rng"
)

// assertTreesIdentical compares the full internal state of two trees —
// permutations, every depth's boundaries and degree sums, the record
// count, every cell matrix, and the private-cut count.
func assertTreesIdentical(t *testing.T, label string, a, b *Tree) {
	t.Helper()
	for side, pair := range map[string][2]*sideTree{
		"left":  {&a.left, &b.left},
		"right": {&a.right, &b.right},
	} {
		x, y := pair[0], pair[1]
		for p := range x.perm {
			if x.perm[p] != y.perm[p] {
				t.Fatalf("%s: %s perm differs at %d: %d vs %d", label, side, p, x.perm[p], y.perm[p])
			}
		}
		if len(x.bounds) != len(y.bounds) {
			t.Fatalf("%s: %s depth count differs", label, side)
		}
		for d := range x.bounds {
			for i := range x.bounds[d] {
				if x.bounds[d][i] != y.bounds[d][i] {
					t.Fatalf("%s: %s bounds differ at depth %d index %d", label, side, d, i)
				}
			}
		}
		for d := range x.groupDeg {
			if !slices.Equal(x.groupDeg[d], y.groupDeg[d]) {
				t.Fatalf("%s: %s degree sums differ at depth %d", label, side, d)
			}
		}
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: record counts differ: %d vs %d", label, a.NumEdges(), b.NumEdges())
	}
	if len(a.cells) != len(b.cells) {
		t.Fatalf("%s: cell depth count differs", label)
	}
	for d := range a.cells {
		for i := range a.cells[d] {
			if a.cells[d][i] != b.cells[d][i] {
				t.Fatalf("%s: cells differ at depth %d index %d", label, d, i)
			}
		}
	}
	if a.NumPrivateCuts() != b.NumPrivateCuts() {
		t.Fatalf("%s: private cuts differ: %d vs %d", label, a.NumPrivateCuts(), b.NumPrivateCuts())
	}
}

// TestBuilderReuseMatchesFreshBuild is the golden test for Builder reuse:
// one Builder serves a sequence of builds over graphs of different sizes
// (including a shrink), varying worker counts and both private and
// non-private bisectors, and every tree must be bit-identical to one from
// a fresh BuildFromEdges with an identically seeded bisector.
func TestBuilderReuseMatchesFreshBuild(t *testing.T) {
	t.Parallel()
	b := NewBuilder()
	defer b.Close()
	cases := []struct {
		nl, nr, edges, rounds, workers int
		seed                           uint64
		eps                            float64 // 0 = balanced bisector
	}{
		{200, 300, 3000, 5, 1, 3, 0.4},
		{512, 256, 8000, 6, 4, 4, 0.2},
		{40, 30, 200, 3, 4, 5, 0}, // shrink
		{512, 256, 8000, 6, 2, 4, 0.2},
		{300, 450, 6000, 5, 1, 7, 0.3},
	}
	for ci, tc := range cases {
		g := randomGraph(t, tc.nl, tc.nr, tc.edges, tc.seed)
		mkBisector := func() partition.Bisector {
			if tc.eps == 0 {
				return partition.BalancedBisector{}
			}
			bis, err := partition.NewExpMechBisector(tc.eps, rng.New(tc.seed+100))
			if err != nil {
				t.Fatal(err)
			}
			return bis
		}
		reused, err := b.BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: tc.rounds, Bisector: mkBisector(), Workers: tc.workers})
		if err != nil {
			t.Fatalf("case %d: reused build: %v", ci, err)
		}
		fresh, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: tc.rounds, Bisector: mkBisector(), Workers: tc.workers})
		if err != nil {
			t.Fatalf("case %d: fresh build: %v", ci, err)
		}
		label := "case " + string(rune('0'+ci))
		assertTreesIdentical(t, label, reused, fresh)
		if err := validateAgainst(reused, g); err != nil {
			t.Fatalf("case %d: reused tree invalid: %v", ci, err)
		}
	}
}

// TestBuilderCloseThenRebuild checks Close leaves the Builder usable.
func TestBuilderCloseThenRebuild(t *testing.T) {
	t.Parallel()
	g := randomGraph(t, 100, 100, 1000, 2)
	b := NewBuilder()
	if _, err := b.BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 3, Bisector: partition.BalancedBisector{}, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	tree, err := b.BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 3, Bisector: partition.BalancedBisector{}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 3, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	assertTreesIdentical(t, "after close", tree, fresh)
	b.Close()
}

// TestBuilderValidation mirrors BuildFromEdges' argument validation.
func TestBuilderValidation(t *testing.T) {
	t.Parallel()
	g := randomGraph(t, 10, 10, 20, 1)
	b := NewBuilder()
	defer b.Close()
	if _, err := b.BuildFromEdges(nil, Options{Rounds: 2, Bisector: partition.BalancedBisector{}}); !errors.Is(err, ErrNilSource) {
		t.Errorf("nil source: got %v", err)
	}
	if _, err := b.BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 2}); !errors.Is(err, ErrNilBisector) {
		t.Errorf("nil bisector: got %v", err)
	}
	if _, err := b.BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 0, Bisector: partition.BalancedBisector{}}); !errors.Is(err, ErrBadRounds) {
		t.Errorf("bad rounds: got %v", err)
	}
}

// TestLevelCellCountsViewAliasesStorage: the view is the tree's own
// count matrix of the level, not a copy.
func TestLevelCellCountsViewAliasesStorage(t *testing.T) {
	t.Parallel()
	g := randomGraph(t, 64, 64, 800, 9)
	tree, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 4, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	for lvl := 0; lvl <= tree.MaxLevel(); lvl++ {
		view, err := tree.LevelCellCountsView(lvl)
		if err != nil {
			t.Fatal(err)
		}
		stored := tree.cells[tree.MaxLevel()-lvl]
		if len(view) != len(stored) || &view[0] != &stored[0] {
			t.Fatalf("level %d: view of %d cells does not alias the stored %d", lvl, len(view), len(stored))
		}
	}
	if _, err := tree.LevelCellCountsView(-1); err == nil {
		t.Error("negative level accepted")
	}
}

// BenchmarkBuilderReuse measures repeated builds over one graph through a
// held Builder.
func BenchmarkBuilderReuse(b *testing.B) {
	g := randomGraph(b, 2000, 3000, 40000, 11)
	bld := NewBuilder()
	defer bld.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bld.BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 6, Bisector: partition.BalancedBisector{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// failingBisector wraps a bisector and fails its nth call, to drive the
// build's error path.
type failingBisector struct {
	partition.Bisector
	failAt, calls int
}

func (f *failingBisector) Bisect(prefix []int64) (int, error) {
	f.calls++
	if f.calls == f.failAt {
		return 0, errors.New("bisector failure injected")
	}
	return f.Bisector.Bisect(prefix)
}

// TestBuilderReleasesBisectorAfterBuild: a retained Builder (a serving
// ingest lane lives as long as the registry) must not keep the finished
// build's bisector reachable. Each build hands the
// Builder a bisector with a finalizer, drops its own reference, and waits
// for the collector to run the finalizer while the Builder is still
// alive — on a build that completes and on one that fails mid-split.
func TestBuilderReleasesBisectorAfterBuild(t *testing.T) {
	g := randomGraph(t, 300, 400, 5000, 3)
	b := NewBuilder()
	defer b.Close()

	builds := map[string]func(partition.Bisector) error{
		"build": func(bis partition.Bisector) error {
			_, err := b.BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 4, Bisector: bis})
			return err
		},
		"failed build": func(bis partition.Bisector) error {
			_, err := b.BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 4, Bisector: &failingBisector{Bisector: bis, failAt: 5}})
			if err == nil {
				return errors.New("injected bisector failure did not fail the build")
			}
			return nil
		},
	}
	for name, build := range builds {
		collected := make(chan struct{})
		func() {
			bis, err := partition.NewExpMechBisector(0.4, rng.New(9))
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(bis, func(*partition.ExpMechBisector) { close(collected) })
			if err := build(bis); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}()
		deadline := time.After(10 * time.Second)
	wait:
		for {
			runtime.GC()
			select {
			case <-collected:
				break wait
			case <-deadline:
				t.Fatalf("%s: the Builder still pins the build's bisector", name)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	runtime.KeepAlive(b)
}

// TestBuilderPinsNoPerNodeMemoryAfterBuild: a serving ingest lane holds
// its Builder for the life of the registry, so anything a build left
// reachable from it would be paid per lane, forever. After builds over
// two half-million-node sides, over a graph cursor and a slice source and
// with both the balanced and a private bisector, with the trees dropped
// and the Builder still held, the live heap must be back within one byte
// per node of where it started — no array indexed by node or position can
// have survived.
func TestBuilderPinsNoPerNodeMemoryAfterBuild(t *testing.T) {
	const n = 1 << 19
	edges := make([]bipartite.Edge, n)
	for i := range edges {
		edges[i] = bipartite.Edge{Left: int32(i), Right: int32((i * 7) % n)}
	}
	g, err := bipartite.FromEdges(n, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	defer b.Close()
	before := liveHeap()
	for _, private := range []bool{false, true} {
		opts := Options{Rounds: 9, Bisector: streamBisector(t, private, 3)}
		if _, err := b.BuildFromEdges(bipartite.NewGraphSource(g), opts); err != nil {
			t.Fatal(err)
		}
		opts.Bisector = streamBisector(t, private, 3)
		if _, err := b.BuildFromEdges(bipartite.NewSliceSource(n, n, edges), opts); err != nil {
			t.Fatal(err)
		}
	}
	if after := liveHeap(); after > before+2*n {
		t.Fatalf("live heap grew from %d to %d bytes across four dropped builds of %d nodes", before, after, 2*n)
	}
	runtime.KeepAlive(b)
	runtime.KeepAlive(g)
}

// liveHeap returns the bytes of live heap after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestTreeRetainsFourBytesPerNode: a served dataset holds its tree for the
// life of the registry. Holding one tree built over two 2^19-node sides
// with a private bisector must cost no more than its two permutations'
// 4 bytes per node, its one cell matrix per depth at 8 bytes per cell,
// and 64 KiB for the per-depth boundaries and degree sums: no degree,
// prefix sum, inverse permutation or second copy of the counts may
// survive the build. The node-group sensitivity, read per release, must
// then allocate nothing.
func TestTreeRetainsFourBytesPerNode(t *testing.T) {
	const n = 1 << 19
	edges := make([]bipartite.Edge, n)
	for i := range edges {
		edges[i] = bipartite.Edge{Left: int32(i), Right: int32((i * 7) % n)}
	}
	before := liveHeap()
	tree, err := BuildFromEdges(bipartite.NewSliceSource(n, n, edges), Options{Rounds: 9, Bisector: streamBisector(t, true, 3)})
	if err != nil {
		t.Fatal(err)
	}
	held := int64(liveHeap()) - int64(before)
	var cellBytes int64
	for d := range tree.cells {
		cellBytes += 8 * int64(len(tree.cells[d]))
	}
	if limit := 4*2*n + cellBytes + 64<<10; held > limit {
		t.Fatalf("holding a tree of 2×%d nodes costs %d bytes, want at most %d (4 B per node + %d B of cells + 64 KiB)", n, held, limit, cellBytes)
	}
	runtime.KeepAlive(edges)

	t.Run("MaxSideGroupIncidentEdges allocates nothing", func(t *testing.T) {
		for level := 0; level <= tree.MaxLevel(); level++ {
			var err error
			if allocs := testing.AllocsPerRun(100, func() { _, err = tree.MaxSideGroupIncidentEdges(level) }); allocs != 0 {
				t.Fatalf("level %d: %v allocations per call", level, allocs)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}
