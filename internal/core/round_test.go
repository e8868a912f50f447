package core

import (
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/dp"
	"repro/internal/rng"
)

// TestRoundFastMatchesRoundToEven: inside its range the shift trick is
// math.RoundToEven, ties included, except that it never returns −0; and
// roundCell is math.RoundToEven at every magnitude, also without −0.
func TestRoundFastMatchesRoundToEven(t *testing.T) {
	t.Parallel()
	const top = 1 << 51
	xs := []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 3.5, -3.5,
		0.49999999999999994, -0.49999999999999994, 0.3, -0.3, 1, -1, 7.25, -7.75,
		math.Nextafter(top, 0), -math.Nextafter(top, 0), top - 0.5, -(top - 0.5),
		top - 1.5, -(top - 1.5), top - 1, -(top - 1), 1 << 50, -(1 << 50) - 0.5,
	}
	r := rng.New(3)
	for i := 0; i < 10000; i++ {
		xs = append(xs, (r.Float64()-0.5)*math.Ldexp(1, r.Intn(52)))
	}
	for _, x := range xs {
		want := math.RoundToEven(x)
		for name, got := range map[string]float64{"roundFast": roundFast(x), "roundCell": roundCell(x)} {
			if got != want {
				t.Fatalf("%s(%v) = %v, want %v", name, x, got, want)
			}
			if got == 0 && math.Signbit(got) {
				t.Fatalf("%s(%v) = −0", name, x)
			}
		}
	}
	// Past 2^51 the trick is wrong (why roundFastExact checks σ), and
	// roundCell — what the kernel uses there — is still exact.
	if x := float64(top) + 1; roundFast(x) == math.RoundToEven(x) {
		t.Errorf("roundFast(2^51 + 1) is exact: the range comment is stale")
	}
	for _, x := range []float64{top + 0.5, top + 1.5, 1 << 53, -(1 << 60) - 4096, 1e300, -1e300} {
		if got := roundCell(x); got != math.RoundToEven(x) {
			t.Errorf("roundCell(%v) = %v, want %v", x, got, math.RoundToEven(x))
		}
	}
}

// unroundedCells is the release before rounding: the same chunk grid
// and per-chunk streams noisyCells draws, each chunk filled by the
// mechanism's own sampler, plus the counts.
func unroundedCells(counts []int64, mech NoiseMechanism, param float64, seed uint64) []float64 {
	out := make([]float64, len(counts))
	fork := rng.New(seed).Fork()
	chunks := noiseChunkCount(len(out))
	var cs rng.Source
	for c := 0; c < chunks; c++ {
		off, end := c*noiseChunk, (c+1)*noiseChunk
		if c == chunks-1 {
			end = len(out)
		}
		fork.StreamTo(&cs, uint64(c))
		window := out[off:end]
		switch mech {
		case MechGaussian:
			cs.NormalsSigma(window, param)
		case MechLaplace:
			for i := range window {
				window[i] = cs.Laplace(param)
			}
		case MechGeometric:
			for i := range window {
				window[i] = float64(cs.TwoSidedGeometric(param))
			}
		}
		for i := range window {
			window[i] += float64(counts[off+i])
		}
	}
	return out
}

// TestNoisyCellsRoundTheUnroundedRelease: rounding is post-processing.
// For every mechanism — Gaussian below and above maxFastRoundSigma,
// Laplace below and above it too — with whichever rounding
// roundFastExact picks for a level whose largest count fits int32 and
// for one whose largest count does not, at one and four workers, every
// released cell is roundCell of the cell the unrounded kernel draws from
// the same streams. A Laplace scale past the Gaussian guard puts most
// noise beyond roundFast's range, so a pure-ε chunk rounding with it
// fails here.
func TestNoisyCellsRoundTheUnroundedRelease(t *testing.T) {
	t.Parallel()
	n := 2*noiseChunk + rng.ZigBlock + 5
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(i % 7)
	}
	cases := []struct {
		mech  NoiseMechanism
		param float64
	}{
		{MechGaussian, 0.4}, {MechGaussian, 3.5}, {MechGaussian, maxFastRoundSigma / 2},
		{MechGaussian, maxFastRoundSigma}, {MechGaussian, 1 << 60},
		{MechLaplace, 0.4}, {MechLaplace, 3.5}, {MechLaplace, maxFastRoundSigma / 2},
		{MechLaplace, 1 << 52}, {MechLaplace, 1 << 60},
		{MechGeometric, 0.3}, {MechGeometric, 0.9}, {MechGeometric, 1 - 1e-15},
	}
	for _, tc := range cases {
		want := unroundedCells(counts, tc.mech, tc.param, 9)
		for i := range want {
			want[i] = roundCell(want[i])
		}
		for _, maxCount := range []int64{6, math.MaxInt32 + 1} {
			fast := roundFastExact(tc.mech, tc.param, maxCount)
			for _, workers := range []int{1, 4} {
				got := noisyCells(nil, counts, fast, tc.mech, tc.param, rng.New(9), workers)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v at %v fast=%t workers=%d: cell %d = %v, want %v",
							tc.mech, tc.param, fast, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRoundFastExact pins the guard that picks a release's rounding:
// roundFast only for Gaussian noise with σ below 2^47 over a level whose
// largest count fits int32, roundCell for everything else.
func TestRoundFastExact(t *testing.T) {
	t.Parallel()
	const maxFit = math.MaxInt32
	cases := []struct {
		mech     NoiseMechanism
		param    float64
		maxCount int64
		want     bool
	}{
		{MechGaussian, 3.5, 0, true},
		{MechGaussian, 3.5, maxFit, true},
		{MechGaussian, math.Nextafter(maxFastRoundSigma, 0), maxFit, true},
		{MechGaussian, maxFastRoundSigma, 6, false},
		{MechGaussian, 1 << 60, 6, false},
		{MechGaussian, 3.5, maxFit + 1, false},
		{MechGaussian, 3.5, math.MaxInt64, false},
		{MechLaplace, 3.5, 6, false},
		{MechLaplace, 0.4, 0, false},
		{MechGeometric, 0.8, 6, false},
		{MechGeometric, 0.3, 0, false},
	}
	for _, tc := range cases {
		if got := roundFastExact(tc.mech, tc.param, tc.maxCount); got != tc.want {
			t.Errorf("roundFastExact(%v, %v, %d) = %t, want %t", tc.mech, tc.param, tc.maxCount, got, tc.want)
		}
	}
}

// TestReleaseRoundsThroughTheGuard: ReleaseCells and ReleaseMarginal
// pick their rounding with roundFastExact at the level's sensitivity, so
// at a σ or a Laplace scale past roundFast's range every released cell,
// and every marginal sum, is still that of roundCell over the unrounded
// draw — as it is at a small σ, where the release takes roundFast.
func TestReleaseRoundsThroughTheGuard(t *testing.T) {
	t.Parallel()
	tree := deepTree(t, 6)
	counts, err := tree.LevelCellCountsView(0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := tree.NumSideGroups(0)
	if err != nil {
		t.Fatal(err)
	}
	wide := dp.Params{Epsilon: 50, Delta: 1e-5}
	specs := map[string]Noise{
		"gaussian":      external(3.5, wide),
		"gaussian-wide": external(1<<60, wide),
		"laplace-wide":  {Mech: MechLaplace, Budget: dp.Params{Epsilon: 1e-14}},
	}
	for name, n := range specs {
		s, err := n.resolve(tree, 0, ModelCells, rng.New(9), true)
		if err != nil {
			t.Fatal(err)
		}
		want := unroundedCells(counts, n.Mech, s.param, 9)
		for i := range want {
			want[i] = roundCell(want[i])
		}
		var cells CellRelease
		if err := ReleaseCells(&cells, tree, 0, n, rng.New(9), 1); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(cells.Counts[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: cell %d = %v, want %v", name, i, cells.Counts[i], want[i])
			}
		}
		wantSums := make([]float64, k)
		FoldMarginal(wantSums, want, 0, k, bipartite.Left)
		var m MarginalRelease
		if err := ReleaseMarginal(&m, tree, 0, bipartite.Left, n, rng.New(9)); err != nil {
			t.Fatal(err)
		}
		for i := range wantSums {
			if math.Float64bits(m.Counts[i]) != math.Float64bits(wantSums[i]) {
				t.Fatalf("%s: row sum %d = %v, want %v", name, i, m.Counts[i], wantSums[i])
			}
		}
	}
}

// TestReleaseCellsIntegral: every released cell is an integer and none
// is −0, for each mechanism at one and four workers. The scales are
// small, so many empty cells draw noise in (−0.5, 0).
func TestReleaseCellsIntegral(t *testing.T) {
	t.Parallel()
	tree := deepTree(t, 6)
	wide := dp.Params{Epsilon: 50, Delta: 1e-5}
	specs := map[string]Noise{
		"gaussian":       classical(dp.Params{Epsilon: 0.9, Delta: 1e-5}),
		"gaussian-small": external(0.3, wide),
		"laplace":        {Mech: MechLaplace, Budget: wide},
		"geometric":      {Mech: MechGeometric, Budget: wide},
	}
	for name, n := range specs {
		for _, workers := range []int{1, 4} {
			var rel CellRelease
			if err := ReleaseCells(&rel, tree, 0, n, rng.New(17), workers); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			zeros := 0
			for i, v := range rel.Counts {
				if v != math.Trunc(v) || math.IsInf(v, 0) {
					t.Fatalf("%s workers=%d: cell %d = %v is not an integer", name, workers, i, v)
				}
				if v == 0 {
					if math.Signbit(v) {
						t.Fatalf("%s workers=%d: cell %d is −0", name, workers, i)
					}
					zeros++
				}
			}
			if name != "gaussian" && zeros == 0 {
				t.Errorf("%s workers=%d: no zero cell, so −0 was never in reach", name, workers)
			}
		}
	}
}
