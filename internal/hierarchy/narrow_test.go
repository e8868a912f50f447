package hierarchy

import (
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/partition"
)

// TestLevelCellCounts32View pins the narrow cell-count cache to the wide
// matrix: present (these graphs are tiny, every depth fits int32) and
// value-equal at every level, so the release path's 4-byte add pass is a
// pure bandwidth optimization.
func TestLevelCellCounts32View(t *testing.T) {
	t.Parallel()
	g := randomGraph(t, 64, 64, 800, 9)
	tree, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 4, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	for lvl := 0; lvl <= tree.MaxLevel(); lvl++ {
		wide, err := tree.LevelCellCountsView(lvl)
		if err != nil {
			t.Fatal(err)
		}
		narrow, ok := tree.LevelCellCounts32View(lvl)
		if !ok {
			t.Fatalf("level %d: narrow cache missing (max count fits int32)", lvl)
		}
		if len(narrow) != len(wide) {
			t.Fatalf("level %d: narrow has %d cells, wide %d", lvl, len(narrow), len(wide))
		}
		for i := range wide {
			if int64(narrow[i]) != wide[i] {
				t.Fatalf("level %d cell %d: narrow %d, wide %d", lvl, i, narrow[i], wide[i])
			}
		}
	}
	if _, ok := tree.LevelCellCounts32View(-1); ok {
		t.Error("negative level reported a narrow cache")
	}
	if _, ok := tree.LevelCellCounts32View(tree.MaxLevel() + 1); ok {
		t.Error("out-of-range level reported a narrow cache")
	}
}

// TestLevelCellCounts32ViewOverflow forces counts past int32 by
// installing a synthetic deepest matrix: the narrow cache must be absent
// at every depth (aggregation only grows counts upward), making the
// release path fall back to the wide int64 read.
func TestLevelCellCounts32ViewOverflow(t *testing.T) {
	t.Parallel()
	g := randomGraph(t, 32, 32, 200, 3)
	tree, err := BuildFromEdges(bipartite.NewGraphSource(g), Options{Rounds: 3, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	deepest, err := tree.LevelCellCounts(0)
	if err != nil {
		t.Fatal(err)
	}
	deepest[0] = math.MaxInt32 + 1
	tree.setCells(deepest)
	for lvl := 0; lvl <= tree.MaxLevel(); lvl++ {
		if _, ok := tree.LevelCellCounts32View(lvl); ok {
			t.Fatalf("level %d: narrow cache present despite count > MaxInt32", lvl)
		}
		// The wide view must still serve the injected matrix.
		wide, err := tree.LevelCellCountsView(lvl)
		if err != nil || len(wide) == 0 {
			t.Fatalf("level %d: wide view broken after overflow: %v", lvl, err)
		}
	}
}
