package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/query"
	"repro/internal/rng"
)

var (
	marginalSides   = []bipartite.Side{bipartite.Left, bipartite.Right}
	marginalWorkers = []int{1, 2, 4, 7}
)

// sameBits fails unless got and want are the same float64 values bit
// for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sums, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sum %d is %v, materialised %v", what, i, got[i], want[i])
		}
	}
}

// TestReleaseMarginalMatchesCells: the fused marginal is the row or
// column sums of the histogram ReleaseCells releases from the same
// stream at any worker count, bit for bit, and leaves the stream where
// ReleaseCells leaves it — for every mechanism, both rounding paths,
// σ = 0, both sides, and k × k histograms smaller than one chunk, one
// chunk with an absorbed fragment, exact multiples of the chunk, rows
// cut by a chunk edge, and a final fragment standing alone.
func TestReleaseMarginalMatchesCells(t *testing.T) {
	t.Parallel()
	mechs := []struct {
		name  string
		mech  core.NoiseMechanism
		param float64
	}{
		{"gaussian/round-fast", core.MechGaussian, 3.5},
		{"gaussian/round-cell", core.MechGaussian, core.MaxFastRoundSigma},
		{"laplace", core.MechLaplace, 3.5},
		{"geometric", core.MechGeometric, 0.8},
		{"sigma-zero", core.MechGaussian, 0},
	}
	// k² against the grid: 1, 9 and 4096 cells fit in one chunk; 8281 is
	// one chunk plus an absorbed 89-cell fragment; 9216 is two chunks
	// with row 85 cut by the edge; 16384 is exactly two; 33124 is four,
	// the last absorbing 356 cells; 33489 is five, the last 721 cells
	// long.
	ks := []int{1, 3, 64, 91, 96, 128, 182, 183}
	for _, m := range mechs {
		for _, side := range marginalSides {
			var rel core.MarginalRelease // reused across sizes: stale sums must not leak
			for _, k := range ks {
				counts := make([]int64, k*k)
				for i := range counts {
					counts[i] = int64((i * 2654435761) % 9001)
				}
				for _, workers := range marginalWorkers {
					what := fmt.Sprintf("%s/%v/k=%d/workers=%d", m.name, side, k, workers)
					cellsSrc, fusedSrc := rng.New(42), rng.New(42)
					cells := core.NoisyCells(nil, counts, m.mech, m.param, cellsSrc, workers)
					want, err := query.MarginalCountsInto(nil, core.CellRelease{Counts: cells, SideGroups: k}, side)
					if err != nil {
						t.Fatal(err)
					}
					core.NoisyMarginal(&rel, counts, k, side, m.mech, m.param, fusedSrc)
					sameBits(t, what, rel.Counts, want)
					if got, want := fusedSrc.Uint64(), cellsSrc.Uint64(); got != want {
						t.Fatalf("%s: next draw %#x, after the materialised release %#x", what, got, want)
					}
				}
			}
		}
	}
}

// TestReleaseMarginalTreeMatchesCells runs the public entry point over
// every level of a tree (level 0 spans eight chunks) and an empty tree
// (σ = 0 everywhere) under each mechanism, against ReleaseCells +
// MarginalCountsInto.
func TestReleaseMarginalTreeMatchesCells(t *testing.T) {
	t.Parallel()
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	specs := []core.Noise{
		{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: p},
		{Mech: core.MechLaplace, Budget: p},
		{Mech: core.MechGeometric, Budget: p},
		{Mech: core.MechGaussian, External: true, Sigma: 0, Budget: p},
	}
	for _, tc := range []struct {
		name   string
		rounds int
	}{{"full", 8}, {"empty", 0}} {
		tree := core.EmptyTree(t)
		if tc.rounds > 0 {
			tree = core.DeepTree(t, tc.rounds)
		}
		for level := 0; level <= tree.MaxLevel(); level++ {
			for _, n := range specs {
				for _, side := range marginalSides {
					for _, workers := range marginalWorkers {
						what := fmt.Sprintf("%s/level%d/%v/%v/workers=%d", tc.name, level, n.Mech, side, workers)
						cellsSrc, fusedSrc := rng.New(9), rng.New(9)
						var cells core.CellRelease
						if err := core.ReleaseCells(&cells, tree, level, n, cellsSrc, workers); err != nil {
							t.Fatal(err)
						}
						want, err := query.MarginalCountsInto(nil, cells, side)
						if err != nil {
							t.Fatal(err)
						}
						var rel core.MarginalRelease
						if err := core.ReleaseMarginal(&rel, tree, level, side, n, fusedSrc); err != nil {
							t.Fatal(err)
						}
						sameBits(t, what, rel.Counts, want)
						if got, want := fusedSrc.Uint64(), cellsSrc.Uint64(); got != want {
							t.Fatalf("%s: next draw %#x, after ReleaseCells %#x", what, got, want)
						}
					}
				}
			}
		}
	}
}

// naiveMarginal sums a row-major k × k matrix the plain way: one
// accumulator per row, cells in column order, or each column's cells in
// row order — the order every released marginal adds its cells in.
func naiveMarginal(cells []float64, k int, side bipartite.Side) []float64 {
	sums := make([]float64, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if side == bipartite.Left {
				sums[i] += cells[i*k+j]
			} else {
				sums[j] += cells[i*k+j]
			}
		}
	}
	return sums
}

// TestFoldMarginalWindows folds a matrix of non-integer cells, whose
// sums depend on the order of their additions, in windows of every
// shape: narrower than a row, so one row's sum resumes across several
// window edges (the shape a level with more than noiseChunk side groups
// gives the chunk grid), a row and a bit, wide enough for the four-row
// pass, and the whole matrix (query.MarginalCountsInto's one call). Each
// must equal the plain row-by-row sums bit for bit.
func TestFoldMarginalWindows(t *testing.T) {
	t.Parallel()
	const k = 20
	src := rng.New(3)
	cells := make([]float64, k*k)
	for i := range cells {
		cells[i] = src.NormalSigma(1e6)
	}
	for _, side := range marginalSides {
		want := naiveMarginal(cells, k, side)
		for _, width := range []int{1, 7, k - 1, k, k + 3, 4*k + 3, k * k} {
			sums := make([]float64, k)
			for off := 0; off < len(cells); off += width {
				core.FoldMarginal(sums, cells[off:min(off+width, len(cells))], off, k, side)
			}
			sameBits(t, fmt.Sprintf("%v/width=%d", side, width), sums, want)
		}
		got, err := query.MarginalCountsInto(nil, core.CellRelease{Counts: cells, SideGroups: k}, side)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("%v/MarginalCountsInto", side), got, want)
	}
}

// TestReleaseMarginalRejectsBadSide: an invalid side is refused before
// anything is drawn.
func TestReleaseMarginalRejectsBadSide(t *testing.T) {
	t.Parallel()
	src := rng.New(1)
	before := *src
	var rel core.MarginalRelease
	n := core.Noise{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: dp.Params{Epsilon: 0.5, Delta: 1e-5}}
	if err := core.ReleaseMarginal(&rel, core.EmptyTree(t), 0, bipartite.Side(0), n, src); err == nil {
		t.Fatal("side 0 accepted")
	}
	if *src != before {
		t.Fatal("a refused release consumed the stream")
	}
}
