package bipartite

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// buildTestGraph returns the small fixture used across this file:
//
//	left 0 — right 0, 1
//	left 1 — right 1
//	left 2 — right 0, 1, 2
func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(3, 3, []Edge{
		{0, 0}, {0, 1},
		{1, 1},
		{2, 0}, {2, 1}, {2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSideString(t *testing.T) {
	t.Parallel()
	if Left.String() != "left" || Right.String() != "right" {
		t.Errorf("unexpected side names %q %q", Left, Right)
	}
	if got := Side(9).String(); got != "Side(9)" {
		t.Errorf("invalid side renders as %q", got)
	}
}

func TestSideValid(t *testing.T) {
	t.Parallel()
	if !Left.Valid() || !Right.Valid() || Side(0).Valid() || Side(3).Valid() {
		t.Error("Valid misclassifies sides")
	}
}

func TestGraphCounts(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	if g.NumLeft() != 3 || g.NumRight() != 3 {
		t.Errorf("counts = %d/%d", g.NumLeft(), g.NumRight())
	}
	if g.NumEdges() != 6 {
		t.Errorf("NumEdges = %d, want 6", g.NumEdges())
	}
	if g.NumSide(Left) != 3 || g.NumSide(Right) != 3 || g.NumSide(Side(0)) != 0 {
		t.Error("NumSide wrong")
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	cases := []struct {
		side Side
		id   int32
		deg  int64
	}{
		{Left, 0, 2}, {Left, 1, 1}, {Left, 2, 3},
		{Right, 0, 2}, {Right, 1, 3}, {Right, 2, 1},
	}
	for _, tc := range cases {
		if got := g.Degree(tc.side, tc.id); got != tc.deg {
			t.Errorf("Degree(%v,%d) = %d, want %d", tc.side, tc.id, got, tc.deg)
		}
	}
	nb := g.Neighbors(Left, 2)
	if len(nb) != 3 || nb[0] != 0 || nb[1] != 1 || nb[2] != 2 {
		t.Errorf("Neighbors(Left,2) = %v", nb)
	}
	nb = g.Neighbors(Right, 1)
	if len(nb) != 3 || nb[0] != 0 || nb[1] != 1 || nb[2] != 2 {
		t.Errorf("Neighbors(Right,1) = %v", nb)
	}
}

func TestAdjacencyView(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	for _, side := range []Side{Left, Right} {
		off, adj := g.AdjacencyView(side)
		if len(off) != g.NumSide(side)+1 {
			t.Fatalf("%v offsets length = %d, want %d", side, len(off), g.NumSide(side)+1)
		}
		if int64(len(adj)) != g.NumEdges() {
			t.Fatalf("%v adjacency length = %d, want %d", side, len(adj), g.NumEdges())
		}
		for id := int32(0); id < int32(g.NumSide(side)); id++ {
			row := adj[off[id]:off[id+1]]
			want := g.Neighbors(side, id)
			if len(row) != len(want) {
				t.Fatalf("%v node %d row length = %d, want %d", side, id, len(row), len(want))
			}
			for i := range want {
				if row[i] != want[i] {
					t.Errorf("%v node %d neighbor %d = %d, want %d", side, id, i, row[i], want[i])
				}
			}
		}
	}
	// The left-major walk of the view enumerates the same edge sequence as
	// ForEachEdge.
	off, adj := g.AdjacencyView(Left)
	var viaCallback []Edge
	g.ForEachEdge(func(l, r int32) bool {
		viaCallback = append(viaCallback, Edge{l, r})
		return true
	})
	var viaView []Edge
	for l := int32(0); l < int32(g.NumLeft()); l++ {
		for _, r := range adj[off[l]:off[l+1]] {
			viaView = append(viaView, Edge{l, r})
		}
	}
	if len(viaView) != len(viaCallback) {
		t.Fatalf("view walk saw %d edges, callback %d", len(viaView), len(viaCallback))
	}
	for i := range viaView {
		if viaView[i] != viaCallback[i] {
			t.Errorf("edge %d: view %v, callback %v", i, viaView[i], viaCallback[i])
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AdjacencyView accepted invalid side")
			}
		}()
		g.AdjacencyView(Side(0))
	}()
}

func TestHasEdge(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	for _, e := range g.Edges() {
		if !g.HasEdge(e.Left, e.Right) {
			t.Errorf("HasEdge(%d,%d) = false for existing edge", e.Left, e.Right)
		}
	}
	for _, e := range []Edge{{1, 0}, {1, 2}, {0, 2}} {
		if g.HasEdge(e.Left, e.Right) {
			t.Errorf("HasEdge(%d,%d) = true for absent edge", e.Left, e.Right)
		}
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Error("HasEdge out-of-range should be false")
	}
}

func TestForEachEdgeOrderAndEarlyStop(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	var seen []Edge
	g.ForEachEdge(func(l, r int32) bool {
		seen = append(seen, Edge{l, r})
		return true
	})
	want := []Edge{{0, 0}, {0, 1}, {1, 1}, {2, 0}, {2, 1}, {2, 2}}
	if len(seen) != len(want) {
		t.Fatalf("saw %d edges, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, seen[i], want[i])
		}
	}
	count := 0
	g.ForEachEdge(func(l, r int32) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d edges, want 3", count)
	}
}

func TestBuilderDedup(t *testing.T) {
	t.Parallel()
	b := NewBuilder(4)
	b.AddEdge(0, 0)
	b.AddEdge(0, 0)
	b.AddEdge(0, 0)
	b.AddEdge(1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d after dedup, want 2", g.NumEdges())
	}
}

func TestBuilderNegativeID(t *testing.T) {
	t.Parallel()
	b := NewBuilder(1)
	b.AddEdge(-1, 0)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted a negative id")
	}
}

func TestBuilderNamed(t *testing.T) {
	t.Parallel()
	b := NewBuilder(0)
	b.AddAssociation("alice", "insulin")
	b.AddAssociation("bob", "insulin")
	b.AddAssociation("alice", "aspirin")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasNames() {
		t.Fatal("named builder lost names")
	}
	if g.NumLeft() != 2 || g.NumRight() != 2 || g.NumEdges() != 3 {
		t.Fatalf("unexpected shape %d/%d/%d", g.NumLeft(), g.NumRight(), g.NumEdges())
	}
	if g.LeftName(0) != "alice" || g.LeftName(1) != "bob" {
		t.Errorf("left names = %q,%q", g.LeftName(0), g.LeftName(1))
	}
	if g.RightName(0) != "insulin" || g.RightName(1) != "aspirin" {
		t.Errorf("right names = %q,%q", g.RightName(0), g.RightName(1))
	}
}

func TestBuilderMixedIDSpacesRejected(t *testing.T) {
	t.Parallel()
	b := NewBuilder(0)
	b.AddAssociation("alice", "insulin")
	b.AddEdge(5, 5)
	if _, err := b.Build(); !errors.Is(err, ErrMixedIDSpaces) {
		t.Errorf("Build error = %v, want ErrMixedIDSpaces", err)
	}
}

func TestBuilderIsolatedNodes(t *testing.T) {
	t.Parallel()
	b := NewBuilder(1)
	b.AddEdge(0, 0)
	b.SetNumLeft(10)
	b.SetNumRight(5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLeft() != 10 || g.NumRight() != 5 {
		t.Errorf("sides = %d/%d, want 10/5", g.NumLeft(), g.NumRight())
	}
	if g.Degree(Left, 9) != 0 {
		t.Error("isolated node has nonzero degree")
	}
}

func TestFromEdgesRangeCheck(t *testing.T) {
	t.Parallel()
	if _, err := FromEdges(2, 2, []Edge{{2, 0}}); err == nil {
		t.Error("FromEdges accepted an out-of-range edge")
	}
}

func TestUnlabeledNamesEmpty(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	if g.HasNames() {
		t.Fatal("id-built graph should have no names")
	}
	if g.LeftName(0) != "" || g.RightName(0) != "" {
		t.Error("names of unlabeled graph should be empty strings")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("fresh graph invalid: %v", err)
	}
	// Corrupt a neighbor id out of range.
	g.leftAdj[0] = 99
	if err := g.Validate(); err == nil {
		t.Error("Validate missed out-of-range neighbor")
	}
}

func TestValidateCatchesUnsortedRow(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	// left 2 has neighbors [0 1 2]; swap to break ordering.
	row := g.Neighbors(Left, 2)
	row[0], row[1] = row[1], row[0]
	if err := g.Validate(); err == nil {
		t.Error("Validate missed unsorted adjacency row")
	}
}

// TestQuickBuildInvariants checks, for random edge multisets, that Build
// produces a graph whose two CSR views agree and whose edge set equals the
// deduplicated input.
func TestQuickBuildInvariants(t *testing.T) {
	t.Parallel()
	src := rng.New(1234)
	f := func(seed uint64) bool {
		r := src.Split(seed)
		nl := int32(r.Intn(20) + 1)
		nr := int32(r.Intn(20) + 1)
		n := r.Intn(200)
		set := map[Edge]bool{}
		b := NewBuilder(n)
		b.SetNumLeft(nl)
		b.SetNumRight(nr)
		for i := 0; i < n; i++ {
			e := Edge{Left: int32(r.Intn(int(nl))), Right: int32(r.Intn(int(nr)))}
			set[e] = true
			b.AddEdge(e.Left, e.Right)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		if g.NumEdges() != int64(len(set)) {
			return false
		}
		// Every input edge is present; every graph edge was input.
		for e := range set {
			if !g.HasEdge(e.Left, e.Right) {
				return false
			}
		}
		ok := true
		g.ForEachEdge(func(l, r int32) bool {
			if !set[Edge{l, r}] {
				ok = false
				return false
			}
			return true
		})
		// Right-side CSR agrees with the left-side one.
		var rightTotal int64
		for id := int32(0); id < int32(g.NumRight()); id++ {
			rightTotal += g.Degree(Right, id)
			for _, l := range g.Neighbors(Right, id) {
				if !set[Edge{l, id}] {
					ok = false
				}
			}
		}
		return ok && rightTotal == g.NumEdges() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
