package core

import (
	"math"
	"testing"

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
	// Past 2^51 the trick is wrong (why noisyCells checks σ), and
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

// unroundedCells is the Gaussian release before rounding: the same chunk
// grid and per-chunk streams noisyCells draws, plus the counts.
func unroundedCells(counts []int64, sigma float64, seed uint64) []float64 {
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
		cs.NormalsSigma(out[off:end], sigma)
		for i := off; i < end; i++ {
			out[i] += float64(counts[i])
		}
	}
	return out
}

// TestNoisyCellsRoundTheUnroundedRelease: rounding is post-processing.
// Below and above maxFastRoundSigma, through the narrow and the wide
// counts, at one and four workers, every released cell is roundCell of
// the cell the unrounded kernel draws from the same streams.
func TestNoisyCellsRoundTheUnroundedRelease(t *testing.T) {
	t.Parallel()
	n := 2*noiseChunk + rng.ZigBlock + 5
	counts := make([]int64, n)
	counts32 := make([]int32, n)
	for i := range counts {
		counts[i] = int64(i % 7)
		counts32[i] = int32(counts[i])
	}
	for _, sigma := range []float64{0.4, 3.5, maxFastRoundSigma / 2, maxFastRoundSigma, 1 << 60} {
		want := unroundedCells(counts, sigma, 9)
		for i := range want {
			want[i] = roundCell(want[i])
		}
		for _, narrow := range []([]int32){nil, counts32} {
			for _, workers := range []int{1, 4} {
				got := noisyCells(nil, counts, narrow, sigma, rng.New(9), workers)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("σ=%v narrow=%t workers=%d: cell %d = %v, want %v",
							sigma, narrow != nil, workers, i, got[i], want[i])
					}
				}
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
