package dpcheck

// The exact audit reads each release's scale off its label and assumes the
// kernel draws noise at that scale. This test checks the assumption on the
// integers the kernel releases.

import (
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

// unitTree is the hierarchy of the complete bipartite graph on 256 + 256
// nodes, eight balanced rounds deep: its level 0 holds 65 536 cells of one
// association each, so every released cell minus one is one draw of the
// rounded noise.
func unitTree(t testing.TB) *hierarchy.Tree {
	t.Helper()
	const side = 256
	edges := make([]bipartite.Edge, 0, side*side)
	for l := range int32(side) {
		for r := range int32(side) {
			edges = append(edges, bipartite.Edge{Left: l, Right: r})
		}
	}
	tree, err := hierarchy.BuildFromEdges(bipartite.NewSliceSource(side, side, edges), hierarchy.Options{Rounds: 8, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := tree.LevelCellCountsView(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("cell %d holds %d associations, want 1", i, c)
		}
	}
	return tree
}

// TestReleasedIntegersMatchTheirLaw links the scale a release reports to
// the scale it draws. Per mechanism it takes 2^21 released integers from
// core.ReleaseCells — Gaussian cells round through roundFast, Laplace and
// geometric cells through roundCell — and compares them with the closed
// form pmf of the rounded noise at the reported scale, pooled into about
// 50 equiprobable classes, by a χ² test at p = 1e-6. A 1 % scale error
// moves the statistic several times past that bound. core.ReleaseMarginal
// needs no check of its own: it is pinned bit-identical to folding these
// cells.
func TestReleasedIntegersMatchTheirLaw(t *testing.T) {
	t.Parallel()
	tree := unitTree(t)
	for _, n := range []core.Noise{
		{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: dp.Params{Epsilon: 0.2, Delta: 1e-5}},
		{Mech: core.MechLaplace, Budget: dp.Params{Epsilon: 0.04}},
		{Mech: core.MechGeometric, Budget: dp.Params{Epsilon: 0.04}},
	} {
		var rel core.CellRelease
		src := rng.New(5)
		if err := core.ReleaseCells(&rel, tree, 0, n, src, 1); err != nil {
			t.Fatal(err)
		}
		l := cellsLabel(t, rel)
		classOf, expected := equiprobableClasses(roundedNoisePMF(l), 50)
		observed := make([]float64, len(expected))
		const releases = 32
		for r := range releases {
			if r > 0 {
				if err := core.ReleaseCells(&rel, tree, 0, n, src, 1); err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range rel.Counts {
				observed[classOf(int64(v)-1)]++
			}
		}
		draws := float64(releases * len(rel.Counts))
		var chi2 float64
		for c, p := range expected {
			e := p * draws
			chi2 += (observed[c] - e) * (observed[c] - e) / e
		}
		df := len(expected) - 1
		limit := chiSquareQuantile(df, z1e6)
		t.Logf("%s at reported σ=%.4g: χ²=%.1f over %d classes (df %d, p=1e-6 bound %.1f) from %.0f cells", l.mech, l.sigma, chi2, len(expected), df, limit, draws)
		if chi2 > limit {
			t.Errorf("%s: released integers do not follow the rounded noise at the reported σ=%v: χ²=%.1f > %.1f", l.mech, l.sigma, chi2, limit)
		}
	}
}

// roundedNoisePMF returns P(round(X) = k) for the label's noise X at its
// reported scale: Gaussian and Laplace mass on [k−½, k+½) (ties have
// measure zero), the two-sided geometric's (1−α)/(1+α)·α^|k|.
func roundedNoisePMF(l label) func(k int64) float64 {
	switch l.mech {
	case core.MechLaplace:
		b := l.sigma / math.Sqrt2
		cdf := func(x float64) float64 {
			if x < 0 {
				return 0.5 * math.Exp(x/b)
			}
			return 1 - 0.5*math.Exp(-x/b)
		}
		return func(k int64) float64 { return cdf(float64(k)+0.5) - cdf(float64(k)-0.5) }
	case core.MechGeometric:
		a := geometricAlpha(l.sigma)
		return func(k int64) float64 { return (1 - a) / (1 + a) * math.Pow(a, math.Abs(float64(k))) }
	default:
		return func(k int64) float64 {
			return normalCDF((float64(k)+0.5)/l.sigma) - normalCDF((float64(k)-0.5)/l.sigma)
		}
	}
}

// equiprobableClasses pools the integers into consecutive classes of
// about 1/n probability each — a class closes once the mass walked
// reaches its share — walking from the far left tail, where the
// pmf is below 1e-17, to the far right one; values past either end fall
// into the end classes. It returns the class of a value and each class's
// probability.
func equiprobableClasses(pmf func(int64) float64, n int) (func(int64) int, []float64) {
	lo := int64(-1)
	for pmf(lo) > 1e-17 {
		lo *= 2
	}
	var (
		class []int // class[k-lo]
		mass  []float64
		cum   float64
	)
	for k := lo; k <= -lo; k++ {
		if len(mass) == 0 || cum >= float64(len(mass))/float64(n) {
			mass = append(mass, 0)
		}
		p := pmf(k)
		mass[len(mass)-1] += p
		cum += p
		class = append(class, len(mass)-1)
	}
	if last := len(mass) - 1; mass[last] < 0.5/float64(n) { // an underfull right tail joins its neighbour
		mass[last-1] += mass[last]
		mass = mass[:last]
		for i := len(class) - 1; class[i] == last; i-- {
			class[i] = last - 1
		}
	}
	return func(v int64) int { return class[min(max(v-lo, 0), int64(len(class)-1))] }, mass
}

// z1e6 is the standard normal's upper 1e-6 point: every χ² test here
// fails at p = 1e-6.
const z1e6 = 4.753424

// chiSquareQuantile is the Wilson–Hilferty approximation of the χ²
// quantile with df degrees of freedom at the standard normal quantile z.
func chiSquareQuantile(df int, z float64) float64 {
	k := float64(df)
	h := 2 / (9 * k)
	return k * math.Pow(1-h+z*math.Sqrt(h), 3)
}
