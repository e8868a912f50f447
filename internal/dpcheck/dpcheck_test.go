package dpcheck

// Audits of the Phase-2 kernel that ships. D1 is a release made by
// core.ReleaseCount or core.ReleaseCells; D2 is the same release moved
// down by the level's core.Sensitivity — the noise is additive, so that
// is the law of releasing the neighbour's count T − Δℓ at the same scale.
// Nothing here computes a scale or draws a variate of its own.

import (
	"errors"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

// uniformLevel is the level of uniformTree the audits release at: its
// finest, 128 × 128 cells of four records each. That is two chunks of the
// Gaussian noise grid, so a cell audit samples every position of the
// blocked ziggurat fill and the chunk seam, and a sensitivity small enough
// that the geometric audit can bin by exact value.
const uniformLevel = 0

// uniformTree returns the hierarchy of the complete bipartite graph on
// 256 + 256 nodes, seven balanced rounds deep. Every cell of a level holds
// the same count, so every cell of one released histogram is a draw of the
// same law and one core.ReleaseCells call is thousands of samples.
func uniformTree(t testing.TB) *hierarchy.Tree {
	t.Helper()
	const side = 256
	b := bipartite.NewBuilder(side * side)
	b.SetNumLeft(side)
	b.SetNumRight(side)
	for l := int32(0); l < side; l++ {
		for r := int32(0); r < side; r++ {
			b.AddEdge(l, r)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hierarchy.Build(g, hierarchy.Options{Rounds: 7, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := tree.LevelCellCountsView(uniformLevel)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != counts[0] {
			t.Fatalf("cell %d holds %d records, cell 0 holds %d: the tree is not uniform", i, c, counts[0])
		}
	}
	return tree
}

// skewedTree is a small heavy-tailed dataset's hierarchy: unequal groups,
// so a level's sensitivity is its largest group and not every group's.
func skewedTree(t testing.TB) *hierarchy.Tree {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{
		Name: "dpcheck", NumLeft: 120, NumRight: 160, NumEdges: 1500,
		LeftZipf: 1.9, RightZipf: 2.8, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hierarchy.Build(g, hierarchy.Options{Rounds: 3, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func sensitivity(t testing.TB, tree *hierarchy.Tree, level int, model core.GroupModel) float64 {
	t.Helper()
	sens, err := core.Sensitivity(tree, level, model)
	if err != nil {
		t.Fatal(err)
	}
	return float64(sens)
}

// countDraws draws one core.ReleaseCount per sample and moves it down by
// shift.
func countDraws(tree *hierarchy.Tree, level int, model core.GroupModel, n core.Noise, shift float64) MechanismFunc {
	return func(src *rng.Source) float64 {
		rel, err := core.ReleaseCount(tree, level, model, n, src)
		if err != nil {
			panic(err)
		}
		return rel.NoisyCount - shift
	}
}

// cellDraws hands out the cells of successive core.ReleaseCells
// histograms one per sample, each moved down by shift. The tree must be
// uniform at the level (uniformTree).
func cellDraws(tree *hierarchy.Tree, level int, n core.Noise, shift float64) MechanismFunc {
	var rel core.CellRelease
	next := 0
	return func(src *rng.Source) float64 {
		if next == len(rel.Counts) {
			if err := core.ReleaseCells(&rel, tree, level, n, src, 1); err != nil {
				panic(err)
			}
			next = 0
		}
		next++
		return rel.Counts[next-1] - shift
	}
}

// stage names the kernel entry point an audit samples.
type stage string

const (
	countStage stage = "ReleaseCount"
	cellStage  stage = "ReleaseCells" // one cell per sample
)

// estimateLoss estimates the privacy loss of releasing uniformTree's
// uniformLevel as n says, through the stage's entry point, against the
// release shifted by the level's sensitivity. Geometric releases are
// binned by exact value.
func estimateLoss(t *testing.T, tree *hierarchy.Tree, n core.Noise, s stage, seed uint64) Result {
	t.Helper()
	draws := func(shift float64) MechanismFunc {
		if s == cellStage {
			return cellDraws(tree, uniformLevel, n, shift)
		}
		return countDraws(tree, uniformLevel, core.ModelCells, n, shift)
	}
	onD1, onD2 := draws(0), draws(sensitivity(t, tree, uniformLevel, core.ModelCells))
	var (
		res Result
		err error
	)
	if n.Mech == core.MechGeometric {
		exact := func(m MechanismFunc) DiscreteMechanismFunc {
			return func(src *rng.Source) int64 { return int64(m(src)) }
		}
		res, err = EstimateEpsilonDiscrete(exact(onD1), exact(onD2), Config{Seed: seed})
	} else {
		res, err = EstimateEpsilon(onD1, onD2, Config{Seed: seed})
	}
	if err != nil {
		t.Fatalf("%v %s: %v", n.Mech, s, err)
	}
	t.Logf("%v %s at ε=%v: empirical loss %.3f over %d bins", n.Mech, s, n.Budget.Epsilon, res.EpsilonHat, res.BinsUsed)
	return res
}

// auditMechanism checks one mechanism at one stage against the budget it
// is calibrated to: the empirical loss is never meaningfully above ε,
// and for the pure-ε families (whose loss is tight at ε) not implausibly
// below either.
func auditMechanism(t *testing.T, tree *hierarchy.Tree, mech core.NoiseMechanism, s stage) {
	t.Helper()
	eps := 1.0
	if mech == core.MechGaussian {
		// Classical Gaussian calibration is defined for ε < 1 only.
		eps = 0.8
	}
	// The spec release.Engine builds for a stage: mechanism, calibration,
	// the per-release budget.
	n := core.Noise{Mech: mech, Calib: core.CalibrationClassical, Budget: dp.Params{Epsilon: eps, Delta: 1e-5}}
	res := estimateLoss(t, tree, n, s, 51+uint64(mech))
	if res.EpsilonHat > eps*1.3 {
		t.Errorf("%v %s: empirical loss %v exceeds ε=%v", mech, s, res.EpsilonHat, eps)
	}
	if mech != core.MechGaussian && res.EpsilonHat < eps*0.5 {
		t.Errorf("%v %s: empirical loss %v implausibly low for a tight pure-ε mechanism", mech, s, res.EpsilonHat)
	}
}

// TestAuditFlagsUnderNoisedRelease is the negative control through the
// kernel: a Laplace release that spends ε = 3 while claiming ε = 1 must
// fail the bound auditMechanism applies, at both stages.
func TestAuditFlagsUnderNoisedRelease(t *testing.T) {
	t.Parallel()
	tree := uniformTree(t)
	const claimed = 1.0
	n := core.Noise{Mech: core.MechLaplace, Budget: dp.Params{Epsilon: 3 * claimed}}
	for _, s := range []stage{countStage, cellStage} {
		if res := estimateLoss(t, tree, n, s, 7); res.EpsilonHat <= claimed*1.3 {
			t.Errorf("%s: under-noised release not caught: estimate %v vs claimed %v", s, res.EpsilonHat, claimed)
		}
	}
}

// TestEstimateEpsilonGaussianWithinBudget audits the externally
// calibrated Gaussian path (the RDP-accounted release): σ comes from the
// analytic calibration at the level's sensitivity and is handed to the
// kernel as given.
func TestEstimateEpsilonGaussianWithinBudget(t *testing.T) {
	t.Parallel()
	tree := uniformTree(t)
	p := dp.Params{Epsilon: 0.8, Delta: 1e-5}
	sigma, err := dp.AnalyticGaussianSigma(p, sensitivity(t, tree, uniformLevel, core.ModelCells))
	if err != nil {
		t.Fatal(err)
	}
	n := core.Noise{Mech: core.MechGaussian, External: true, Sigma: sigma, Budget: p}
	for _, s := range []stage{countStage, cellStage} {
		// The bulk loss sits under ε; allow sampling slack above it but
		// flag gross violations.
		if res := estimateLoss(t, tree, n, s, 9); res.EpsilonHat > p.Epsilon*1.3 {
			t.Errorf("%s: gaussian empirical loss %v exceeds ε=%v", s, res.EpsilonHat, p.Epsilon)
		}
	}
}

// TestGroupDPReleaseWithinBudget is the headline check: the paper's
// Phase-2 count release at a level of a skewed dataset, against the
// release its group-adjacent neighbour (the largest level group removed)
// would get, must show empirical privacy loss at or below εg.
func TestGroupDPReleaseWithinBudget(t *testing.T) {
	t.Parallel()
	tree := skewedTree(t)
	const level = 2
	p := dp.Params{Epsilon: 0.9, Delta: 1e-4}
	n := core.Noise{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: p}
	res, err := EstimateEpsilon(
		countDraws(tree, level, core.ModelCells, n, 0),
		countDraws(tree, level, core.ModelCells, n, sensitivity(t, tree, level, core.ModelCells)),
		Config{Seed: 31},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpsilonHat > p.Epsilon*1.3 {
		t.Errorf("group-DP release empirical loss %v exceeds εg=%v", res.EpsilonHat, p.Epsilon)
	}
}

// TestGroupDPIndividualNoiseFailsGroupPrivacy is the paper's motivating
// negative result: a release calibrated for individual DP (Δ = 1) does
// NOT protect the group — against the neighbour missing the level's
// largest group the empirical loss blows past εg.
func TestGroupDPIndividualNoiseFailsGroupPrivacy(t *testing.T) {
	t.Parallel()
	tree := skewedTree(t)
	const level = 2
	p := dp.Params{Epsilon: 0.9, Delta: 1e-4}
	n := core.Noise{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: p}
	res, err := EstimateEpsilon(
		countDraws(tree, level, core.ModelIndividual, n, 0),
		countDraws(tree, level, core.ModelIndividual, n, sensitivity(t, tree, level, core.ModelCells)),
		Config{Seed: 33},
	)
	if err != nil {
		// Distributions so far apart that no bin overlaps: that too
		// demonstrates the privacy failure.
		if errors.Is(err, ErrNoBins) {
			return
		}
		t.Fatal(err)
	}
	if res.EpsilonHat < p.Epsilon*2 {
		t.Errorf("individual-DP noise should leak group membership: loss %v vs εg=%v", res.EpsilonHat, p.Epsilon)
	}
}
