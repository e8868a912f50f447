package hierarchy

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
	"repro/internal/partition"
	"repro/internal/rng"
)

// smallGraph builds an 8x8 bipartite graph with deterministic edges.
func smallGraph(t testing.TB) *bipartite.Graph {
	t.Helper()
	r := rng.New(2024)
	b := bipartite.NewBuilder(0)
	b.SetNumLeft(8)
	b.SetNumRight(8)
	for i := 0; i < 40; i++ {
		b.AddEdge(int32(r.Intn(8)), int32(r.Intn(8)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildTree(t testing.TB, g *bipartite.Graph, rounds int, bis partition.Bisector) *Tree {
	t.Helper()
	tree, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: rounds, Bisector: bis})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestBuildValidation(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	if _, err := BuildFromEdges(nil, Options{Rounds: 1, Bisector: partition.BalancedBisector{}}); !errors.Is(err, ErrNilSource) {
		t.Errorf("nil source: %v", err)
	}
	if _, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 1}); !errors.Is(err, ErrNilBisector) {
		t.Errorf("nil bisector: %v", err)
	}
	for _, rounds := range []int{0, -1, MaxRounds + 1} {
		if _, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: rounds, Bisector: partition.BalancedBisector{}}); !errors.Is(err, ErrBadRounds) {
			t.Errorf("rounds=%d: %v", rounds, err)
		}
	}
}

func TestBuildSmallTreeShape(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	tree := buildTree(t, g, 2, partition.BalancedBisector{})
	if tree.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d, want 2", tree.MaxLevel())
	}
	for lvl, wantCells := range map[int]int{2: 1, 1: 4, 0: 16} {
		n, err := tree.NumCells(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if n != wantCells {
			t.Errorf("level %d has %d cells, want %d", lvl, n, wantCells)
		}
	}
	for lvl, wantGroups := range map[int]int{2: 1, 1: 2, 0: 4} {
		n, err := tree.NumSideGroups(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if n != wantGroups {
			t.Errorf("level %d has %d side groups, want %d", lvl, n, wantGroups)
		}
	}
	root, err := tree.LevelCellCountsView(2)
	if err != nil {
		t.Fatal(err)
	}
	if root[0] != g.NumEdges() {
		t.Errorf("root cell edges = %d, want %d", root[0], g.NumEdges())
	}
	if err := validateAgainst(tree, g); err != nil {
		t.Fatal(err)
	}
}

func TestLevelOutOfRange(t *testing.T) {
	t.Parallel()
	tree := buildTree(t, smallGraph(t), 2, partition.BalancedBisector{})
	if _, err := tree.NumCells(3); !errors.Is(err, ErrBadLevel) {
		t.Errorf("level above root: %v", err)
	}
	if _, err := tree.NumCells(-1); !errors.Is(err, ErrBadLevel) {
		t.Errorf("level below leaves: %v", err)
	}
	if _, err := tree.LevelCellCountsView(5); !errors.Is(err, ErrBadLevel) {
		t.Error("LevelCellCountsView accepted bad level")
	}
}

func TestEdgePartitionPerLevel(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	tree := buildTree(t, g, 3, partition.BalancedBisector{})
	for level := 0; level <= tree.MaxLevel(); level++ {
		k, err := tree.NumSideGroups(level)
		if err != nil {
			t.Fatal(err)
		}
		counts := naiveCellCounts(g, tree, tree.MaxLevel()-level)
		if len(counts) != k*k {
			t.Fatalf("level %d: %d cells for %d side groups", level, len(counts), k)
		}
		stored, err := tree.LevelCellCountsView(level)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for idx := range counts {
			if counts[idx] != stored[idx] {
				t.Errorf("level %d cell %d: counted %d, stored %d", level, idx, counts[idx], stored[idx])
			}
			total += stored[idx]
		}
		if total != g.NumEdges() {
			t.Errorf("level %d total %d != %d", level, total, g.NumEdges())
		}
	}
}

func TestSideGroupNodesPartitionSide(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	tree := buildTree(t, g, 2, partition.BalancedBisector{})
	for _, side := range []bipartite.Side{bipartite.Left, bipartite.Right} {
		for level := 0; level <= 2; level++ {
			k, err := tree.NumSideGroups(level)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int32]bool{}
			for i := 0; i < k; i++ {
				nodes, err := tree.SideGroupNodes(level, side, i)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range nodes {
					if seen[v] {
						t.Fatalf("node %d in two groups at level %d side %v", v, level, side)
					}
					seen[v] = true
				}
			}
			if len(seen) != g.NumSide(side) {
				t.Errorf("level %d side %v covers %d nodes, want %d", level, side, len(seen), g.NumSide(side))
			}
		}
	}
	if _, err := tree.SideGroupNodes(1, bipartite.Side(0), 0); err == nil {
		t.Error("invalid side accepted")
	}
	if _, err := tree.SideGroupNodes(1, bipartite.Left, 5); err == nil {
		t.Error("group index out of range accepted")
	}
}

func TestSideGroupIncidentEdges(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	tree := buildTree(t, g, 2, partition.BalancedBisector{})
	// At the root there is one group per side and its incident edges are
	// all edges.
	sums, err := tree.SideGroupIncidentEdges(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0] != g.NumEdges() {
		t.Errorf("root incident sums = %v", sums)
	}
	// At any level, a side's incident sums add up to the total edge count.
	for level := 0; level <= 2; level++ {
		for _, side := range []bipartite.Side{bipartite.Left, bipartite.Right} {
			sums, err := tree.SideGroupIncidentEdges(level, side)
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for _, s := range sums {
				total += s
			}
			if total != g.NumEdges() {
				t.Errorf("level %d side %v incident sum = %d, want %d", level, side, total, g.NumEdges())
			}
		}
	}
}

func TestMaxSideGroupIncidentEdges(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	tree := buildTree(t, g, 2, partition.BalancedBisector{})
	max, err := tree.MaxSideGroupIncidentEdges(2)
	if err != nil {
		t.Fatal(err)
	}
	if max != g.NumEdges() {
		t.Errorf("root node-group sensitivity = %d, want %d", max, g.NumEdges())
	}
	finer, err := tree.MaxSideGroupIncidentEdges(0)
	if err != nil {
		t.Fatal(err)
	}
	if finer > max {
		t.Errorf("node-group sensitivity grew with depth: %d > %d", finer, max)
	}
}

// sensitivityByDepth is the cell-model sensitivity of every level, root
// first.
func sensitivityByDepth(t *testing.T, tree *Tree) []int64 {
	t.Helper()
	out := make([]int64, tree.MaxLevel()+1)
	for d := range out {
		s, err := tree.MaxCellEdges(tree.MaxLevel() - d)
		if err != nil {
			t.Fatal(err)
		}
		out[d] = s
	}
	return out
}

func TestSensitivityProfileMonotone(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	tree := buildTree(t, g, 3, partition.BalancedBisector{})
	prof := sensitivityByDepth(t, tree)
	if prof[0] != g.NumEdges() {
		t.Errorf("root sensitivity = %d, want %d", prof[0], g.NumEdges())
	}
	for i := 1; i < len(prof); i++ {
		if prof[i] > prof[i-1] {
			t.Errorf("sensitivity increased from depth %d (%d) to %d (%d)", i-1, prof[i-1], i, prof[i])
		}
	}
}

func TestProfileAndSkew(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	tree := buildTree(t, g, 2, partition.BalancedBisector{})
	p, err := tree.Profile(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCells != 4 || p.TotalEdges != g.NumEdges() {
		t.Errorf("profile = %+v", p)
	}
	if p.Skew < 1 {
		t.Errorf("skew = %v, want >= 1", p.Skew)
	}
	if p.MeanCellEdges <= 0 {
		t.Errorf("mean cell edges = %v", p.MeanCellEdges)
	}
}

func TestNumPrivateCuts(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	bis, err := partition.NewExpMechBisector(0.5, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	tree := buildTree(t, g, 2, bis)
	// Depth 0: 2 cuts (one per side). Depth 1: up to 4 cuts. Ranges
	// smaller than 2 nodes are not cut.
	if n := tree.NumPrivateCuts(); n < 2 || n > 6 {
		t.Errorf("NumPrivateCuts = %d, want in [2,6]", n)
	}
	nonPrivate := buildTree(t, g, 2, partition.BalancedBisector{})
	if nonPrivate.NumPrivateCuts() != 0 {
		t.Error("non-private build counted private cuts")
	}
}

// forwardingBisector wraps another bisector, forwarding privacy status
// through partition.PrivacyConsumer — the pattern the build must account
// for without knowing concrete types.
type forwardingBisector struct {
	inner partition.Bisector
}

func (f forwardingBisector) Bisect(prefix []int64) (int, error) { return f.inner.Bisect(prefix) }
func (f forwardingBisector) Name() string                       { return "wrapped-" + f.inner.Name() }
func (f forwardingBisector) Private() bool {
	pc, ok := f.inner.(partition.PrivacyConsumer)
	return ok && pc.Private()
}

func TestWrappedPrivateBisectorCounted(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	inner, err := partition.NewExpMechBisector(0.5, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	wrapped := buildTree(t, g, 2, forwardingBisector{inner: inner})
	if wrapped.NumPrivateCuts() == 0 {
		t.Error("wrapped private bisector not counted")
	}
	nonPrivate := buildTree(t, g, 2, forwardingBisector{inner: partition.BalancedBisector{}})
	if n := nonPrivate.NumPrivateCuts(); n != 0 {
		t.Errorf("wrapped non-private bisector counted %d cuts", n)
	}
}

func TestDepthOfLevel(t *testing.T) {
	t.Parallel()
	tree := buildTree(t, smallGraph(t), 3, partition.BalancedBisector{})
	d, err := tree.DepthOfLevel(3)
	if err != nil || d != 0 {
		t.Errorf("DepthOfLevel(3) = %d, %v", d, err)
	}
	d, err = tree.DepthOfLevel(0)
	if err != nil || d != 3 {
		t.Errorf("DepthOfLevel(0) = %d, %v", d, err)
	}
	if _, err := tree.DepthOfLevel(4); !errors.Is(err, ErrBadLevel) {
		t.Error("level above root accepted")
	}
}

func TestEmptyGraphTree(t *testing.T) {
	t.Parallel()
	b := bipartite.NewBuilder(0)
	b.SetNumLeft(4)
	b.SetNumRight(4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree := buildTree(t, g, 2, partition.MidpointBisector{})
	if err := validateAgainst(tree, g); err != nil {
		t.Fatal(err)
	}
	s, err := tree.MaxCellEdges(0)
	if err != nil || s != 0 {
		t.Errorf("MaxCellEdges = %d, %v", s, err)
	}
}

func TestDeeperThanNodesTree(t *testing.T) {
	t.Parallel()
	// 2x2 graph split 4 rounds: ranges bottom out at single nodes and
	// empty ranges; invariants must hold throughout.
	g, err := bipartite.FromEdges(2, 2, []bipartite.Edge{{Left: 0, Right: 0}, {Left: 1, Right: 1}, {Left: 0, Right: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tree := buildTree(t, g, 4, partition.BalancedBisector{})
	if err := validateAgainst(tree, g); err != nil {
		t.Fatal(err)
	}
	s, err := tree.MaxCellEdges(0)
	if err != nil {
		t.Fatal(err)
	}
	if s < 1 {
		t.Errorf("finest sensitivity = %d, want >= 1", s)
	}
}

// TestQuickTreeInvariants builds trees over random graphs with random
// bisector choices and checks Validate plus sensitivity monotonicity.
func TestQuickTreeInvariants(t *testing.T) {
	t.Parallel()
	src := rng.New(808)
	f := func(seed uint64) bool {
		r := src.Split(seed)
		nl := r.Intn(30) + 2
		nr := r.Intn(30) + 2
		b := bipartite.NewBuilder(0)
		b.SetNumLeft(int32(nl))
		b.SetNumRight(int32(nr))
		for i := 0; i < r.Intn(200); i++ {
			b.AddEdge(int32(r.Intn(nl)), int32(r.Intn(nr)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var bis partition.Bisector
		switch r.Intn(3) {
		case 0:
			bis = partition.BalancedBisector{}
		case 1:
			bis = partition.MidpointBisector{}
		default:
			rb, err := partition.NewRandomBisector(r.Split(1))
			if err != nil {
				return false
			}
			bis = rb
		}
		rounds := r.Intn(4) + 1
		tree, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: rounds, Bisector: bis})
		if err != nil {
			return false
		}
		if err := validateAgainst(tree, g); err != nil {
			return false
		}
		prof := sensitivityByDepth(t, tree)
		for i := 1; i < len(prof); i++ {
			if prof[i] > prof[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSidePermutationAndBounds(t *testing.T) {
	t.Parallel()
	g := smallGraph(t)
	tree := buildTree(t, g, 2, partition.BalancedBisector{})
	perm, err := tree.SidePermutation(bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != g.NumLeft() {
		t.Fatalf("perm length = %d", len(perm))
	}
	seen := map[int32]bool{}
	for _, v := range perm {
		if seen[v] {
			t.Fatal("permutation has duplicates")
		}
		seen[v] = true
	}
	// Returned slices are copies.
	perm[0] = perm[1]
	perm2, err := tree.SidePermutation(bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	if perm2[0] == perm2[1] {
		t.Error("SidePermutation aliases internal state")
	}
	bounds, err := tree.SideBounds(1, bipartite.Right)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 3 || bounds[0] != 0 || int(bounds[2]) != g.NumRight() {
		t.Errorf("bounds = %v", bounds)
	}
	if _, err := tree.SideBounds(99, bipartite.Left); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := tree.SidePermutation(bipartite.Side(0)); err == nil {
		t.Error("bad side accepted")
	}
}

func TestParallelBuildIdentical(t *testing.T) {
	t.Parallel()
	r := rng.New(606)
	b := bipartite.NewBuilder(0)
	const nl, nr = 500, 700
	b.SetNumLeft(nl)
	b.SetNumRight(nr)
	for i := 0; i < 5000; i++ {
		b.AddEdge(int32(r.Intn(nl)), int32(r.Intn(nr)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int, seed uint64) *Tree {
		bis, err := partition.NewExpMechBisector(0.2, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 5, Bisector: bis, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	serial := build(1, 42)
	parallel := build(8, 42)
	if err := validateAgainst(parallel, g); err != nil {
		t.Fatal(err)
	}
	// Worker count must not change any cut: identical cell counts at
	// every level.
	for level := 0; level <= 5; level++ {
		a, err := serial.LevelCellCountsView(level)
		if err != nil {
			t.Fatal(err)
		}
		c, err := parallel.LevelCellCountsView(level)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("level %d cell %d: serial %d != parallel %d", level, i, a[i], c[i])
			}
		}
	}
	if serial.NumPrivateCuts() != parallel.NumPrivateCuts() {
		t.Error("worker count changed private cut count")
	}
}

func BenchmarkBuildRounds6(b *testing.B) {
	r := rng.New(99)
	builder := bipartite.NewBuilder(0)
	const nl, nr = 2000, 3000
	builder.SetNumLeft(nl)
	builder.SetNumRight(nr)
	for i := 0; i < 20000; i++ {
		builder.AddEdge(int32(r.Intn(nl)), int32(r.Intn(nr)))
	}
	g, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 6, Bisector: partition.BalancedBisector{}})
		if err != nil {
			b.Fatal(err)
		}
		_ = tree
	}
}

// TestValidateRejectsCorruptTree corrupts each field of a built tree in
// turn, on a tree deeper than its sides so that empty ranges exist, and
// expects Validate to refuse every one with ErrInvalid.
func TestValidateRejectsCorruptTree(t *testing.T) {
	t.Parallel()
	g := randomGraph(t, 6, 5, 30, 1)
	const rounds = 4
	build := func() *Tree {
		bis, err := partition.NewExpMechBisector(0.5, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return buildTree(t, g, rounds, bis)
	}
	if err := validateAgainst(build(), g); err != nil {
		t.Fatalf("uncorrupted tree: %v", err)
	}
	cases := map[string]func(tree *Tree){
		"left perm repeats a node":    func(tree *Tree) { tree.left.perm[1] = tree.left.perm[0] },
		"right perm out of range":     func(tree *Tree) { tree.right.perm[0] = int32(len(tree.right.perm)) },
		"bounds lose a depth":         func(tree *Tree) { tree.left.bounds = tree.left.bounds[:rounds] },
		"bounds decrease":             func(tree *Tree) { tree.left.bounds[1][1] = int32(len(tree.left.perm)) + 1 },
		"bounds do not refine":        func(tree *Tree) { tree.right.bounds[2][2]++ },
		"bounds do not span the side": func(tree *Tree) { tree.right.bounds[3][0] = 1 },
		"degree sums lose a depth":    func(tree *Tree) { tree.right.groupDeg = tree.right.groupDeg[:rounds] },
		"degree sums lose a range":    func(tree *Tree) { tree.left.groupDeg[2] = tree.left.groupDeg[2][:3] },
		"degree sums do not refine":   func(tree *Tree) { tree.left.groupDeg[3][0]++ },
		"root sum is not the records": func(tree *Tree) { tree.right.groupDeg[0][0]++ },
		"record count off by one":     func(tree *Tree) { tree.numEdges++ },
		"empty range holds a record": func(tree *Tree) {
			// One record moves from a finest left group into its empty
			// sibling, in the degree sums and in the deepest matrix alike:
			// the parent's sum, the cached maxima, every coarser matrix and
			// every row and column sum still agree, so only the empty range
			// can tell.
			bounds, sums := tree.left.bounds[rounds], tree.left.groupDeg[rounds]
			deepest := append([]int64(nil), tree.cells[rounds]...)
			k := 1 << rounds
			for i := range sums {
				if bounds[i] != bounds[i+1] {
					continue
				}
				for j := 0; j < k; j++ {
					if from := (i^1)*k + j; deepest[from] > 0 {
						deepest[from]--
						deepest[i*k+j]++
						sums[i^1]--
						sums[i]++
						tree.left.maxGroupDeg[rounds] = slices.Max(sums)
						tree.setCells(deepest)
						return
					}
				}
			}
			t.Fatal("no empty range beside a record to corrupt")
		},
		"cached degree-sum max wrong": func(tree *Tree) { tree.right.maxGroupDeg[2]++ },
		"summary left count wrong":    func(tree *Tree) { tree.stats.NumLeft++ },
		"summary right count wrong":   func(tree *Tree) { tree.stats.NumRight-- },
		"summary record count wrong":  func(tree *Tree) { tree.stats.NumEdges++ },
		"cell matrix lost a depth":    func(tree *Tree) { tree.cells = tree.cells[:rounds] },
		"cell matrix wrong size":      func(tree *Tree) { tree.cells[2] = tree.cells[2][:5] },
		"deepest cells contradict the degree sums": func(tree *Tree) {
			// Moving a record between two cells of one 2×2 block keeps every
			// coarser matrix; setCells keeps the maxima consistent, so only
			// the row and column sums can tell.
			deepest := append([]int64(nil), tree.cells[rounds]...)
			for i, c := range deepest {
				if c > 0 {
					deepest[i]--
					deepest[i^1]++ // same row, the neighbouring column of its block
					tree.setCells(deepest)
					return
				}
			}
			t.Fatal("no record to move")
		},
		"coarse cells are not the aggregate": func(tree *Tree) { tree.cells[1][0]++ },
		"cached cell max wrong":              func(tree *Tree) { tree.maxCells[rounds]++ },
	}
	for name, corrupt := range cases {
		tree := build()
		corrupt(tree)
		if err := tree.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Validate returned %v, want ErrInvalid", name, err)
		}
	}
}
