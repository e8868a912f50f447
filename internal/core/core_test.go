package core

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

// testTree builds a deterministic 3-level hierarchy over a 16x16 graph.
func testTree(t testing.TB) *hierarchy.Tree {
	t.Helper()
	r := rng.New(55)
	b := bipartite.NewBuilder(0)
	b.SetNumLeft(16)
	b.SetNumRight(16)
	for i := 0; i < 120; i++ {
		b.AddEdge(int32(r.Intn(16)), int32(r.Intn(16)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hierarchy.BuildFromEdges(bipartite.NewGraphSource(g), hierarchy.Options{Rounds: 3, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// classical is the paper's perturbation: Gaussian noise consuming p,
// calibrated with the classical bound.
func classical(p dp.Params) Noise {
	return Noise{Mech: MechGaussian, Calib: CalibrationClassical, Budget: p}
}

// external is Gaussian noise at an externally calibrated σ.
func external(sigma float64, advertised dp.Params) Noise {
	return Noise{Mech: MechGaussian, External: true, Sigma: sigma, Budget: advertised}
}

// releaseCells is ReleaseCells into a fresh buffer on one worker.
func releaseCells(t *hierarchy.Tree, level int, n Noise, src *rng.Source) (CellRelease, error) {
	var rel CellRelease
	err := ReleaseCells(&rel, t, level, n, src, 1)
	return rel, err
}

func TestGroupModelStrings(t *testing.T) {
	t.Parallel()
	if ModelCells.String() != "cells" || ModelNodeGroups.String() != "node-groups" || ModelIndividual.String() != "individual" {
		t.Error("unexpected model names")
	}
	if !strings.Contains(GroupModel(9).String(), "9") {
		t.Error("invalid model should render its number")
	}
	if GroupModel(0).Valid() || !ModelCells.Valid() {
		t.Error("Valid misclassifies models")
	}
}

func TestCalibrationStrings(t *testing.T) {
	t.Parallel()
	if CalibrationClassical.String() != "classical" || CalibrationAnalytic.String() != "analytic" {
		t.Error("unexpected calibration names")
	}
	if Calibration(0).Valid() || !CalibrationAnalytic.Valid() {
		t.Error("Valid misclassifies calibrations")
	}
}

func TestUniverseCells(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	u, err := Universe(tree, 3, ModelCells)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumGroups != 1 || u.MaxGroupRecords != tree.NumEdges() {
		t.Errorf("root universe = %+v", u)
	}
	u1, err := Universe(tree, 1, ModelCells)
	if err != nil {
		t.Fatal(err)
	}
	if u1.NumGroups != 16 {
		t.Errorf("level 1 cells = %d, want 16", u1.NumGroups)
	}
	if u1.MaxGroupRecords > u.MaxGroupRecords {
		t.Error("finer level has larger max group")
	}
}

func TestUniverseNodeGroups(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	u, err := Universe(tree, 1, ModelNodeGroups)
	if err != nil {
		t.Fatal(err)
	}
	// Level 1 depth 2 → 4 ranges per side → 8 node groups.
	if u.NumGroups != 8 {
		t.Errorf("node groups = %d, want 8", u.NumGroups)
	}
	if u.MaxGroupRecords <= 0 {
		t.Errorf("max group records = %d", u.MaxGroupRecords)
	}
}

func TestUniverseIndividual(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	u, err := Universe(tree, 0, ModelIndividual)
	if err != nil {
		t.Fatal(err)
	}
	if u.MaxGroupRecords != 1 {
		t.Errorf("individual sensitivity = %d, want 1", u.MaxGroupRecords)
	}
	if int64(u.NumGroups) != tree.NumEdges() {
		t.Errorf("individual groups = %d, want %d", u.NumGroups, tree.NumEdges())
	}
}

func TestUniverseErrors(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	if _, err := Universe(nil, 0, ModelCells); !errors.Is(err, ErrNilTree) {
		t.Errorf("nil tree: %v", err)
	}
	if _, err := Universe(tree, 0, GroupModel(42)); !errors.Is(err, ErrBadModel) {
		t.Errorf("bad model: %v", err)
	}
	if _, err := Universe(tree, 99, ModelCells); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := Universe(tree, 99, ModelIndividual); err == nil {
		t.Error("bad level accepted for individual model")
	}
}

func TestSensitivityOrdering(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	// Node-group sensitivity dominates cell sensitivity at the same level
	// (a side group's incident edges include every cell in its row).
	for level := 0; level <= 3; level++ {
		cell, err := Sensitivity(tree, level, ModelCells)
		if err != nil {
			t.Fatal(err)
		}
		node, err := Sensitivity(tree, level, ModelNodeGroups)
		if err != nil {
			t.Fatal(err)
		}
		if cell > node {
			t.Errorf("level %d: cell sensitivity %d > node-group %d", level, cell, node)
		}
		ind, err := Sensitivity(tree, level, ModelIndividual)
		if err != nil {
			t.Fatal(err)
		}
		if ind != 1 {
			t.Errorf("individual sensitivity = %d", ind)
		}
	}
}

func TestSigma(t *testing.T) {
	t.Parallel()
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	sigmaC, err := Sigma(p, 100, CalibrationClassical)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dp.ClassicalGaussianSigma(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sigmaC != want {
		t.Errorf("classical sigma = %v, want %v", sigmaC, want)
	}
	sigmaA, err := Sigma(p, 100, CalibrationAnalytic)
	if err != nil {
		t.Fatal(err)
	}
	if sigmaA >= sigmaC {
		t.Errorf("analytic sigma %v not tighter than classical %v", sigmaA, sigmaC)
	}
	zero, err := Sigma(p, 0, CalibrationClassical)
	if err != nil || zero != 0 {
		t.Errorf("Sigma(0 sens) = %v, %v", zero, err)
	}
	if _, err := Sigma(p, -1, CalibrationClassical); err == nil {
		t.Error("negative sensitivity accepted")
	}
	if _, err := Sigma(p, 1, Calibration(7)); !errors.Is(err, ErrBadCalib) {
		t.Errorf("bad calibration: %v", err)
	}
}

func TestReleaseCountBasics(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.9, Delta: 1e-5}
	rel, err := ReleaseCount(tree, 2, ModelCells, classical(p), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Level != 2 || rel.TrueCount != tree.NumEdges() {
		t.Errorf("release = %+v", rel)
	}
	if rel.Sigma <= 0 || rel.Sensitivity <= 0 {
		t.Errorf("sigma/sensitivity = %v/%d", rel.Sigma, rel.Sensitivity)
	}
	wantRER := math.Abs(rel.NoisyCount-float64(rel.TrueCount)) / float64(rel.TrueCount)
	if math.Abs(rel.RER-wantRER) > 1e-12 {
		t.Errorf("RER = %v, want %v", rel.RER, wantRER)
	}
}

func TestReleaseCountErrors(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.9, Delta: 1e-5}
	if _, err := ReleaseCount(nil, 0, ModelCells, classical(p), rng.New(1)); !errors.Is(err, ErrNilTree) {
		t.Errorf("nil tree: %v", err)
	}
	if _, err := ReleaseCount(tree, 0, ModelCells, classical(p), nil); !errors.Is(err, dp.ErrNilSource) {
		t.Errorf("nil source: %v", err)
	}
	if _, err := ReleaseCount(tree, 0, ModelCells, classical(dp.Params{}), rng.New(1)); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := ReleaseCount(tree, 9, ModelCells, classical(p), rng.New(1)); err == nil {
		t.Error("invalid level accepted")
	}
	// Classical calibration rejects εg >= 1.
	if _, err := ReleaseCount(tree, 0, ModelCells, classical(dp.Params{Epsilon: 2, Delta: 1e-5}), rng.New(1)); err == nil {
		t.Error("classical calibration accepted eps=2")
	}
}

func TestReleaseNoiseGrowsWithLevel(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	var prev float64 = -1
	for level := 0; level <= 3; level++ {
		rel, err := ReleaseCount(tree, level, ModelCells, classical(p), rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if rel.Sigma < prev {
			t.Errorf("sigma decreased from %v to %v at level %d", prev, rel.Sigma, level)
		}
		prev = rel.Sigma
	}
}

func TestExpectedRERMatchesEmpirical(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	want, err := ExpectedRER(tree, 2, ModelCells, classical(p))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	const trials = 20000
	var sum float64
	for i := 0; i < trials; i++ {
		rel, err := ReleaseCount(tree, 2, ModelCells, classical(p), src)
		if err != nil {
			t.Fatal(err)
		}
		sum += rel.RER
	}
	got := sum / trials
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("empirical mean RER %v vs expected %v", got, want)
	}
}

func TestExpectedRERErrors(t *testing.T) {
	t.Parallel()
	if _, err := ExpectedRER(nil, 0, ModelCells, classical(dp.Params{Epsilon: 1})); !errors.Is(err, ErrNilTree) {
		t.Errorf("nil tree: %v", err)
	}
}

func TestReleaseCells(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.9, Delta: 1e-5}
	rel, err := releaseCells(tree, 1, classical(p), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if rel.SideGroups != 4 || len(rel.Counts) != 16 {
		t.Errorf("cell release shape = %d groups, %d counts", rel.SideGroups, len(rel.Counts))
	}
	// The sum of noisy cells should be within a few sigma·sqrt(cells) of
	// the true total.
	trueTotal := float64(tree.NumEdges())
	slack := 6 * rel.Sigma * math.Sqrt(float64(len(rel.Counts)))
	if diff := math.Abs(rel.SumCells() - trueTotal); diff > slack {
		t.Errorf("cell sum off by %v, slack %v", diff, slack)
	}
}

func TestReleaseCellsErrors(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.9, Delta: 1e-5}
	if _, err := releaseCells(nil, 0, classical(p), rng.New(1)); !errors.Is(err, ErrNilTree) {
		t.Errorf("nil tree: %v", err)
	}
	if _, err := releaseCells(tree, 0, classical(p), nil); !errors.Is(err, dp.ErrNilSource) {
		t.Errorf("nil source: %v", err)
	}
	if _, err := releaseCells(tree, 42, classical(p), rng.New(1)); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := releaseCells(tree, 0, classical(dp.Params{Epsilon: -1}), rng.New(1)); err == nil {
		t.Error("bad params accepted")
	}
}

// multiLevel releases the given levels' counts at the full budget each,
// the way release.Pipeline assembles its MultiLevelRelease.
func multiLevel(t *testing.T, tree *hierarchy.Tree, levels ...int) MultiLevelRelease {
	t.Helper()
	p := dp.Params{Epsilon: 0.9, Delta: 1e-5}
	m := MultiLevelRelease{MaxLevel: tree.MaxLevel()}
	for _, lvl := range levels {
		rel, err := ReleaseCount(tree, lvl, ModelCells, classical(p), rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		m.Levels = append(m.Levels, rel)
	}
	return m
}

func TestMultiLevelForLevel(t *testing.T) {
	t.Parallel()
	m := multiLevel(t, testTree(t), 0, 1, 2)
	if m.MaxLevel != 3 || len(m.Levels) != 3 {
		t.Errorf("multi release = %+v", m)
	}
	if rel, ok := m.ForLevel(1); !ok || rel.Level != 1 {
		t.Errorf("ForLevel(1) = %+v, %v", rel, ok)
	}
	if _, ok := m.ForLevel(9); ok {
		t.Error("ForLevel(9) found a missing level")
	}
}

func TestOmitTrue(t *testing.T) {
	t.Parallel()
	m := multiLevel(t, testTree(t), 0, 1)
	pub := m.OmitTrue()
	for _, r := range pub.Levels {
		if r.TrueCount != 0 || r.RER != 0 {
			t.Errorf("published release leaks true count: %+v", r)
		}
		if r.NoisyCount == 0 {
			t.Error("published release lost the noisy answer")
		}
	}
	// Original untouched.
	if m.Levels[0].TrueCount == 0 {
		t.Error("OmitTrue mutated the original")
	}
}

func TestLevelReleaseJSONRoundTrip(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.9, Delta: 1e-5}
	rel, err := ReleaseCount(tree, 1, ModelCells, classical(p), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rel)
	if err != nil {
		t.Fatal(err)
	}
	var got LevelRelease
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.Level != rel.Level || got.NoisyCount != rel.NoisyCount || got.ModelName != "cells" {
		t.Errorf("round trip = %+v", got)
	}
}

// TestGroupPrivacyEmpirical checks the defining inequality of Def. 4 on a
// tiny universe: the count mechanism run on D and on D minus its largest
// level-1 group produces output histograms whose ratio is bounded by
// e^{εg} (up to δ and sampling noise) when noise is calibrated at the
// group sensitivity.
func TestGroupPrivacyEmpirical(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	const level = 1
	p := dp.Params{Epsilon: 0.8, Delta: 1e-4}
	sens, err := Sensitivity(tree, level, ModelCells)
	if err != nil {
		t.Fatal(err)
	}
	release := func(src *rng.Source) LevelRelease {
		rel, err := ReleaseCount(tree, level, ModelCells, classical(p), src)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	// Removing the largest group shifts the true count by sens, and the
	// noise is additive: the neighbour's release has the law of this
	// release moved down by sens. Empirically verify the ratio bound on
	// coarse bins around the means.
	src := rng.New(999)
	const n = 400000
	binW := release(src).Sigma / 2
	h1 := map[int]float64{}
	h2 := map[int]float64{}
	for i := 0; i < n; i++ {
		v1 := release(src).NoisyCount
		v2 := release(src).NoisyCount - float64(sens)
		h1[int(math.Floor(v1/binW))]++
		h2[int(math.Floor(v2/binW))]++
	}
	bound := math.Exp(p.Epsilon)
	for bin, c1 := range h1 {
		c2 := h2[bin]
		if c1 < 5000 || c2 < 5000 {
			continue
		}
		ratio := c1 / c2
		if ratio > bound*1.25 || 1/ratio > bound*1.25 {
			t.Errorf("bin %d: ratio %v exceeds e^εg = %v", bin, ratio, bound)
		}
	}
}
