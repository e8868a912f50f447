package release

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/rng"
)

// TestEngineMarginalWorkers: Engine.Marginal answers the sums of the
// histogram Cells releases from the same stream, bit for bit, through
// the fused pass — over every level of a seven-round tree, whose level 0
// spans two noise chunks, and for both sides. An invalid side is
// refused.
func TestEngineMarginalWorkers(t *testing.T) {
	t.Parallel()
	tree, err := hierarchy.BuildFromEdges(bipartite.NewGraphSource(testGraph(t)),
		hierarchy.Options{Rounds: 7, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *Engine {
		e, err := NewEngine(core.ModelCells, core.CalibrationClassical, core.MechGaussian)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref, e := newEngine(), newEngine()
	for level := 0; level <= tree.MaxLevel(); level++ {
		for _, side := range []bipartite.Side{bipartite.Left, bipartite.Right} {
			cells, err := ref.Cells(tree, level, defaultBudget(), rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			want, err := query.MarginalCountsInto(nil, *cells, side)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("level%d/%v", level, side)
			got, err := e.Marginal(tree, level, side, defaultBudget(), rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d sums, want %d", what, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: sum %d is %v, Cells' %v", what, i, got[i], want[i])
				}
			}
		}
	}
	if _, err := e.Marginal(tree, 0, bipartite.Side(0), defaultBudget(), rng.New(5)); err == nil {
		t.Fatal("side 0 accepted")
	}
}
