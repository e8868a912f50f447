package hierarchy

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/partition"
	"repro/internal/rng"
)

// naiveCellCounts recounts the depth-d cell matrix of a tree built over
// g the slow way — one full edge pass with a per-edge binary search over
// the range boundaries, positions taken from an inverse permutation
// derived here — sharing no code with the streamed scan and the bottom-up
// aggregation it cross-checks.
func naiveCellCounts(g *bipartite.Graph, tree *Tree, d int) []int64 {
	leftPos, rightPos := inversePerm(tree.left.perm), inversePerm(tree.right.perm)
	k := 1 << d
	counts := make([]int64, k*k)
	g.ForEachEdge(func(l, r int32) bool {
		i := findRange(tree.left.bounds[d], leftPos[l])
		j := findRange(tree.right.bounds[d], rightPos[r])
		counts[i*k+j]++
		return true
	})
	return counts
}

// inversePerm maps each node id to its position in perm.
func inversePerm(perm []int32) []int32 {
	pos := make([]int32, len(perm))
	for p, node := range perm {
		pos[node] = int32(p)
	}
	return pos
}

// validateAgainst runs Validate plus the checks that need the graph the
// tree does not hold: every depth's per-group degree sums equal g's
// degrees summed over the group's span of the permutation, the dataset
// summary equals g's, and every depth's cell matrix equals
// naiveCellCounts over g.
func validateAgainst(tree *Tree, g *bipartite.Graph) error {
	if err := tree.Validate(); err != nil {
		return err
	}
	for _, sd := range []struct {
		st   *sideTree
		side bipartite.Side
	}{{&tree.left, bipartite.Left}, {&tree.right, bipartite.Right}} {
		if len(sd.st.perm) != g.NumSide(sd.side) {
			return fmt.Errorf("%v side: %d nodes in the permutation, graph has %d", sd.side, len(sd.st.perm), g.NumSide(sd.side))
		}
		for d, bounds := range sd.st.bounds {
			for i := 0; i+1 < len(bounds); i++ {
				var want int64
				for _, node := range sd.st.perm[bounds[i]:bounds[i+1]] {
					want += g.Degree(sd.side, node)
				}
				if got := sd.st.groupDeg[d][i]; got != want {
					return fmt.Errorf("%v side depth %d group %d: stored degree sum %d, graph says %d", sd.side, d, i, got, want)
				}
			}
		}
	}
	if got, want := tree.DatasetStats(), bipartite.ComputeStats(g); got != want {
		return fmt.Errorf("DatasetStats diverge:\n  tree  %+v\n  graph %+v", got, want)
	}
	for d := range tree.cells {
		for i, c := range naiveCellCounts(g, tree, d) {
			if tree.cells[d][i] != c {
				return fmt.Errorf("depth %d cell %d stored %d, recounted %d", d, i, tree.cells[d][i], c)
			}
		}
	}
	return nil
}

// randomGraph builds a reproducible random bipartite graph.
func randomGraph(t testing.TB, nl, nr, edges int, seed uint64) *bipartite.Graph {
	t.Helper()
	r := rng.New(seed)
	b := bipartite.NewBuilder(edges)
	b.SetNumLeft(int32(nl))
	b.SetNumRight(int32(nr))
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(r.Intn(nl)), int32(r.Intn(nr)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCellAggregationMatchesNaiveRecount is the golden equivalence test
// for the single-scan bottom-up cell matrices: at every depth of trees
// over random graphs of several sizes and seeds, the aggregated matrix
// must be bit-identical to a naive per-depth recount.
func TestCellAggregationMatchesNaiveRecount(t *testing.T) {
	t.Parallel()
	shapes := []struct{ nl, nr, edges, rounds int }{
		{8, 8, 40, 3},
		{50, 70, 400, 4},
		{200, 300, 3000, 5},
		{512, 256, 8000, 6},
	}
	for _, shape := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			g := randomGraph(t, shape.nl, shape.nr, shape.edges, seed)
			bis, err := partition.NewExpMechBisector(0.5, rng.New(seed+100))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []partition.Bisector{partition.BalancedBisector{}, bis} {
				tree, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: shape.rounds, Bisector: b})
				if err != nil {
					t.Fatal(err)
				}
				for d := 0; d <= shape.rounds; d++ {
					want := naiveCellCounts(g, tree, d)
					got := tree.cells[d]
					if len(got) != len(want) {
						t.Fatalf("%dx%d seed %d %s: depth %d has %d cells, want %d",
							shape.nl, shape.nr, seed, b.Name(), d, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%dx%d seed %d %s: depth %d cell %d aggregated %d, naive %d",
								shape.nl, shape.nr, seed, b.Name(), d, i, got[i], want[i])
						}
					}
				}
				if err := validateAgainst(tree, g); err != nil {
					t.Fatalf("%dx%d seed %d %s: %v", shape.nl, shape.nr, seed, b.Name(), err)
				}
			}
		}
	}
}

// TestBuildWorkersBitIdentical asserts the full internal state — not just
// cell counts — is identical between serial and parallel builds, and that
// both validate.
func TestBuildWorkersBitIdentical(t *testing.T) {
	t.Parallel()
	g := randomGraph(t, 300, 450, 6000, 7)
	build := func(workers int) *Tree {
		bis, err := partition.NewExpMechBisector(0.3, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 5, Bisector: bis, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := validateAgainst(tree, g); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tree
	}
	serial := build(1)
	parallel := build(4)
	for side, pair := range map[string][2]*sideTree{
		"left":  {&serial.left, &parallel.left},
		"right": {&serial.right, &parallel.right},
	} {
		a, b := pair[0], pair[1]
		for p := range a.perm {
			if a.perm[p] != b.perm[p] {
				t.Fatalf("%s perm differs at %d: %d vs %d", side, p, a.perm[p], b.perm[p])
			}
		}
		for d := range a.bounds {
			for i := range a.bounds[d] {
				if a.bounds[d][i] != b.bounds[d][i] {
					t.Fatalf("%s bounds differ at depth %d index %d", side, d, i)
				}
			}
		}
		for d := range a.groupDeg {
			if !slices.Equal(a.groupDeg[d], b.groupDeg[d]) {
				t.Fatalf("%s degree sums differ at depth %d", side, d)
			}
		}
	}
	for d := range serial.cells {
		for i := range serial.cells[d] {
			if serial.cells[d][i] != parallel.cells[d][i] {
				t.Fatalf("cells differ at depth %d index %d", d, i)
			}
		}
	}
	if serial.NumPrivateCuts() != parallel.NumPrivateCuts() {
		t.Fatalf("private cuts differ: %d vs %d", serial.NumPrivateCuts(), parallel.NumPrivateCuts())
	}
}

// TestSideGroupIncidentEdgesMatchesNaive cross-checks the degree-prefix
// answers against a naive per-node degree sum.
func TestSideGroupIncidentEdgesMatchesNaive(t *testing.T) {
	t.Parallel()
	g := randomGraph(t, 120, 90, 1500, 3)
	tree, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 4, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	for level := 0; level <= tree.MaxLevel(); level++ {
		for _, side := range []bipartite.Side{bipartite.Left, bipartite.Right} {
			got, err := tree.SideGroupIncidentEdges(level, side)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				nodes, err := tree.SideGroupNodes(level, side, i)
				if err != nil {
					t.Fatal(err)
				}
				var want int64
				for _, node := range nodes {
					want += g.Degree(side, node)
				}
				if got[i] != want {
					t.Fatalf("level %d side %v group %d: prefix sum %d, naive %d", level, side, i, got[i], want)
				}
			}
		}
	}
}

// TestRadixSortMatchesComparisonSort pins the side sort to a comparison
// sort of the order's definition, (degree desc, node asc), on adversarial
// degree distributions: heavy ties at both ends of the range, which only
// the sort's stability orders, and largest degrees on each side of 2^16,
// 2^32 and 2^48, so one, two, three and four digit passes all run and the
// result lands in either ping-pong buffer. index must then sum the
// degrees over whichever buffer became the permutation.
func TestRadixSortMatchesComparisonSort(t *testing.T) {
	t.Parallel()
	r := rng.New(41)
	sorted := func(n int, cmpNodes func(a, b int32) int) []int32 {
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortFunc(want, cmpNodes)
		return want
	}
	check := func(label string, sb *sideBuild, deg []int64, want []int32) {
		t.Helper()
		sb.index()
		if !slices.Equal(sb.st.perm, want) {
			t.Fatalf("%s: side sort and comparison sort disagree", label)
		}
		if err := checkPerm(sb.st.perm); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for p, node := range sb.st.perm {
			if sb.degPrefix[p+1]-sb.degPrefix[p] != deg[node] {
				t.Fatalf("%s: degree prefix wrong at position %d", label, p)
			}
		}
	}
	for _, maxDeg := range []int64{0, 1, 4, 1<<16 - 1, 1 << 16, 1 << 20, 1<<32 - 1, 1 << 32, 1 << 40, 1 << 48, 1 << 55} {
		for trial := 0; trial < 12; trial++ {
			n := 1 + r.Intn(600)
			deg := make([]int64, n)
			for i := range deg {
				switch r.Intn(3) {
				case 0:
					deg[i] = min(int64(r.Intn(4)), maxDeg) // ties at the small end
				case 1:
					deg[i] = max(maxDeg-int64(r.Intn(4)), 0) // ties at the large end
				default:
					deg[i] = int64(r.Uint64n(uint64(maxDeg) + 1))
				}
			}
			deg[r.Intn(n)] = maxDeg // the largest degree decides the digit count
			sb := newSideBuild(&sideTree{}, deg)
			sb.sortByDegree(maxDeg)
			check(fmt.Sprintf("maxDeg=%d trial %d", maxDeg, trial), &sb, deg, sorted(n, func(a, b int32) int {
				return cmp.Or(cmp.Compare(deg[b], deg[a]), cmp.Compare(a, b))
			}))
		}
	}
}

// BenchmarkSideSort times ordering and indexing one 700 k-node side with
// Zipf degrees drawn in node order — the per-side work a build does
// before its first cut. Of what it allocates, the tree keeps only the
// permutation; the scratch, the prefix sums and one digit histogram are
// build state.
func BenchmarkSideSort(b *testing.B) {
	const n = 700_000
	z, err := rng.NewZipf(rng.New(1), 2, 1, 1<<15)
	if err != nil {
		b.Fatal(err)
	}
	deg := make([]int64, n)
	for i := range deg {
		deg[i] = int64(z.Next())
	}
	maxDeg := slices.Max(deg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb := newSideBuild(&sideTree{}, deg)
		sb.sortByDegree(maxDeg)
		sb.index()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/node")
}

// BenchmarkSideGroupSums measures the O(groups) incident-edge answers
// over every level of a deep tree.
func BenchmarkSideGroupSums(b *testing.B) {
	g := randomGraph(b, 2000, 3000, 50000, 6)
	tree, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 8, Bisector: partition.BalancedBisector{}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for level := 0; level <= tree.MaxLevel(); level++ {
			if _, err := tree.MaxSideGroupIncidentEdges(level); err != nil {
				b.Fatal(err)
			}
		}
	}
}
