package core

import (
	"encoding/json"
	"math"
	"sort"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

// deepTree builds a hierarchy with many cells at its finest level so the
// batched noise path produces a large sample per release.
func deepTree(t testing.TB, rounds int) *hierarchy.Tree {
	t.Helper()
	r := rng.New(91)
	b := bipartite.NewBuilder(0)
	b.SetNumLeft(256)
	b.SetNumRight(256)
	for i := 0; i < 5000; i++ {
		b.AddEdge(int32(r.Intn(256)), int32(r.Intn(256)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hierarchy.BuildFromEdges(bipartite.NewGraphSource(g), hierarchy.Options{Rounds: rounds, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestReleaseCellsNoiseDistribution pins the batched release's output
// statistics to the calibrated Gaussian: across all cells of a fine
// level, the residuals (noisy − exact)/σ must look standard normal by
// moments and KS distance — the guarantee that swapping the scalar polar
// sampler for the batched ziggurat preserved the release distribution.
func TestReleaseCellsNoiseDistribution(t *testing.T) {
	t.Parallel()
	tree := deepTree(t, 6) // 4^6 = 4096 cells at level 0
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	src := rng.New(17)

	var residuals []float64
	var sigma float64
	const trials = 16
	for trial := 0; trial < trials; trial++ {
		rel, err := releaseCells(tree, 0, classical(p), src)
		if err != nil {
			t.Fatal(err)
		}
		sigma = rel.Sigma
		if sigma <= 0 {
			t.Fatalf("sigma = %v, want > 0", sigma)
		}
		exact, err := tree.LevelCellCountsView(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range rel.Counts {
			residuals = append(residuals, (v-float64(exact[i]))/sigma)
		}
	}

	n := float64(len(residuals))
	var sum float64
	for _, r := range residuals {
		sum += r
	}
	mean := sum / n
	var m2 float64
	for _, r := range residuals {
		m2 += (r - mean) * (r - mean)
	}
	m2 /= n
	if tol := 5 / math.Sqrt(n); math.Abs(mean) > tol {
		t.Errorf("residual mean = %v, want |mean| < %v", mean, tol)
	}
	if tol := 5 * math.Sqrt(2/n); math.Abs(m2-1) > tol {
		t.Errorf("residual variance = %v, want 1 ± %v", m2, tol)
	}

	sort.Float64s(residuals)
	var d float64
	for i, x := range residuals {
		f := 0.5 * (1 + math.Erf(x/math.Sqrt2))
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
	}
	if crit := 1.95 / math.Sqrt(n); d > crit {
		t.Errorf("KS statistic %v exceeds critical value %v", d, crit)
	}
}

// TestReleaseCellsReusesDst checks the engine contract: a dst
// passed back in keeps its Counts array when capacity suffices, and the
// release equals one into a fresh dst drawn from an identical stream.
func TestReleaseCellsReusesDst(t *testing.T) {
	t.Parallel()
	tree := deepTree(t, 4)
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}

	var reused CellRelease
	if err := ReleaseCells(&reused, tree, 0, classical(p), rng.New(3), 1); err != nil {
		t.Fatal(err)
	}
	first := &reused.Counts[0]
	if err := ReleaseCells(&reused, tree, 1, classical(p), rng.New(4), 1); err != nil {
		t.Fatal(err)
	}
	if &reused.Counts[0] != first {
		t.Error("second release reallocated despite sufficient capacity")
	}

	fresh, err := releaseCells(tree, 1, classical(p), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Counts) != len(reused.Counts) {
		t.Fatalf("lengths differ: %d vs %d", len(fresh.Counts), len(reused.Counts))
	}
	for i := range fresh.Counts {
		if fresh.Counts[i] != reused.Counts[i] {
			t.Fatalf("cell %d: fresh %v vs reused %v", i, fresh.Counts[i], reused.Counts[i])
		}
	}
	if fresh.Sigma != reused.Sigma || fresh.Sensitivity != reused.Sensitivity ||
		fresh.ModelName != reused.ModelName || fresh.CalibName != reused.CalibName {
		t.Errorf("metadata differs: fresh %+v vs reused %+v", fresh, reused)
	}
}

// TestCellReleaseJSONRoundTrip pins the serialized provenance: a cell
// release must carry its model and calibration names through JSON the way
// LevelRelease does.
func TestCellReleaseJSONRoundTrip(t *testing.T) {
	t.Parallel()
	tree := deepTree(t, 3)
	p := dp.Params{Epsilon: 0.7, Delta: 1e-6}
	rel, err := releaseCells(tree, 1, Noise{Mech: MechGaussian, Calib: CalibrationAnalytic, Budget: p}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if rel.ModelName != "cells" || rel.CalibName != "analytic" {
		t.Fatalf("provenance not set: %q / %q", rel.ModelName, rel.CalibName)
	}
	blob, err := json.Marshal(rel)
	if err != nil {
		t.Fatal(err)
	}
	var got CellRelease
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.ModelName != "cells" {
		t.Errorf("model = %q after round trip, want %q", got.ModelName, "cells")
	}
	if got.CalibName != "analytic" {
		t.Errorf("calibration = %q after round trip, want %q", got.CalibName, "analytic")
	}
	if got.Level != rel.Level || got.Epsilon != rel.Epsilon || got.Delta != rel.Delta ||
		got.Sensitivity != rel.Sensitivity || got.Sigma != rel.Sigma || got.SideGroups != rel.SideGroups {
		t.Errorf("scalar fields lost: %+v vs %+v", got, rel)
	}
	for i := range rel.Counts {
		if got.Counts[i] != rel.Counts[i] {
			t.Fatalf("cell %d lost precision: %v vs %v", i, got.Counts[i], rel.Counts[i])
		}
	}

	relS, err := releaseCells(tree, 1, external(2.5, p), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if relS.ModelName != "cells" || relS.CalibName != "rdp" {
		t.Errorf("sigma-path provenance: %q / %q, want cells / rdp", relS.ModelName, relS.CalibName)
	}
}

// TestReleaseCellsExternalSigmaMatchesFresh mirrors the reuse test for the
// externally calibrated path.
func TestReleaseCellsExternalSigmaMatchesFresh(t *testing.T) {
	t.Parallel()
	tree := deepTree(t, 4)
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	var reused CellRelease
	if err := ReleaseCells(&reused, tree, 0, external(3.5, p), rng.New(12), 1); err != nil {
		t.Fatal(err)
	}
	fresh, err := releaseCells(tree, 0, external(3.5, p), rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Counts {
		if fresh.Counts[i] != reused.Counts[i] {
			t.Fatalf("cell %d: fresh %v vs reused %v", i, fresh.Counts[i], reused.Counts[i])
		}
	}
}

// TestReleaseCellsSteadyStateAllocationFree pins the kernel's hot path:
// a Gaussian release into a reused dst on one worker allocates nothing —
// the Noise spec and its resolved scale stay on the stack. The serving
// layer's TestSteadyStateQueriesAllocationFree sits on top of this.
func TestReleaseCellsSteadyStateAllocationFree(t *testing.T) {
	tree := deepTree(t, 6)
	n := classical(dp.Params{Epsilon: 0.5, Delta: 1e-5})
	src := rng.New(9)
	var dst CellRelease
	release := func() {
		if err := ReleaseCells(&dst, tree, 0, n, src, 1); err != nil {
			t.Fatal(err)
		}
	}
	release() // sizes dst.Counts
	if allocs := testing.AllocsPerRun(50, release); allocs != 0 {
		t.Errorf("reused-dst Gaussian cell release allocates %v times per run, want 0", allocs)
	}
}
