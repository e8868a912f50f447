package query

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

func testTree(t testing.TB) *hierarchy.Tree {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{
		Name: "q", NumLeft: 100, NumRight: 150, NumEdges: 1200,
		LeftZipf: 1.9, RightZipf: 2.8, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hierarchy.BuildFromEdges(bipartite.NewGraphSource(g), hierarchy.Options{Rounds: 4, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// releaseCells releases a level's histogram with classically calibrated
// Gaussian noise at (eps, 1e-5).
func releaseCells(t testing.TB, tree *hierarchy.Tree, level int, eps float64, src *rng.Source) core.CellRelease {
	t.Helper()
	var rel core.CellRelease
	n := core.Noise{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: dp.Params{Epsilon: eps, Delta: 1e-5}}
	if err := core.ReleaseCells(&rel, tree, level, n, src, 1); err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestExactRectFullGridEqualsTotal(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	for level := 0; level <= tree.MaxLevel(); level++ {
		k, err := tree.NumSideGroups(level)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := ExactRect(tree, Rect{Level: level, I0: 0, I1: k, J0: 0, J1: k})
		if err != nil {
			t.Fatal(err)
		}
		if sum != tree.NumEdges() {
			t.Errorf("level %d full rect = %d, want %d", level, sum, tree.NumEdges())
		}
	}
}

func TestExactRectAdditive(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	const level = 2 // 4x4 grid
	left, err := ExactRect(tree, Rect{Level: level, I0: 0, I1: 2, J0: 0, J1: 4})
	if err != nil {
		t.Fatal(err)
	}
	right, err := ExactRect(tree, Rect{Level: level, I0: 2, I1: 4, J0: 0, J1: 4})
	if err != nil {
		t.Fatal(err)
	}
	if left+right != tree.NumEdges() {
		t.Errorf("halves sum to %d, want %d", left+right, tree.NumEdges())
	}
}

func TestRectValidation(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	bad := []Rect{
		{Level: 2, I0: -1, I1: 1, J0: 0, J1: 1},
		{Level: 2, I0: 0, I1: 0, J0: 0, J1: 1},
		{Level: 2, I0: 0, I1: 5, J0: 0, J1: 1},
		{Level: 2, I0: 0, I1: 1, J0: 3, J1: 2},
	}
	for _, r := range bad {
		if _, err := ExactRect(tree, r); !errors.Is(err, ErrBadRect) {
			t.Errorf("rect %+v error = %v", r, err)
		}
	}
	if _, err := ExactRect(nil, Rect{Level: 0, I1: 1, J1: 1}); !errors.Is(err, ErrNilTree) {
		t.Errorf("nil tree: %v", err)
	}
	if _, err := ExactRect(tree, Rect{Level: 99, I1: 1, J1: 1}); err == nil {
		t.Error("bad level accepted")
	}
}

func TestReleasedRect(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	const level = 2
	rel := releaseCells(t, tree, level, 0.9, rng.New(3))
	k := rel.SideGroups
	full := Rect{Level: level, I0: 0, I1: k, J0: 0, J1: k}
	got, err := ReleasedRect(rel, full)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-rel.SumCells()) > 1e-9 {
		t.Errorf("full released rect = %v, want %v", got, rel.SumCells())
	}
	// Level mismatch.
	if _, err := ReleasedRect(rel, Rect{Level: 1, I1: 1, J1: 1}); !errors.Is(err, ErrLevelMismatch) {
		t.Errorf("level mismatch error = %v", err)
	}
	if _, err := ReleasedRect(rel, Rect{Level: level, I0: 0, I1: k + 1, J0: 0, J1: 1}); !errors.Is(err, ErrBadRect) {
		t.Errorf("bad rect error = %v", err)
	}
}

func TestRandomRectsInRange(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	const level = 1
	k, err := tree.NumSideGroups(level)
	if err != nil {
		t.Fatal(err)
	}
	rects, err := RandomRects(rng.New(5), tree, level, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) != 200 {
		t.Fatalf("got %d rects", len(rects))
	}
	for _, r := range rects {
		if err := r.validate(k); err != nil {
			t.Fatalf("generated invalid rect: %v", err)
		}
		if r.Level != level {
			t.Fatal("rect level wrong")
		}
	}
}

func TestRandomRectsErrors(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	if _, err := RandomRects(nil, tree, 0, 5); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := RandomRects(rng.New(1), nil, 0, 5); !errors.Is(err, ErrNilTree) {
		t.Error("nil tree accepted")
	}
	if _, err := RandomRects(rng.New(1), tree, 0, -1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := RandomRects(rng.New(1), tree, 99, 5); err == nil {
		t.Error("bad level accepted")
	}
}

func TestEvaluateWorkload(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	const level = 2
	rel := releaseCells(t, tree, level, 0.9, rng.New(8))
	rects, err := RandomRects(rng.New(9), tree, level, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(tree, rel, rects)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumQueries != 100 || res.Level != level {
		t.Errorf("result = %+v", res)
	}
	if res.AbsErr.N != 100 {
		t.Errorf("abs err N = %d", res.AbsErr.N)
	}
	// Mean absolute error should be within an order of magnitude of
	// sigma * sqrt(mean cells per rect); loose sanity bound.
	if res.AbsErr.Mean <= 0 {
		t.Error("zero mean abs error from a noisy release is implausible")
	}
	maxPlausible := rel.Sigma * math.Sqrt(float64(16)) * 10
	if res.AbsErr.Mean > maxPlausible {
		t.Errorf("mean abs error %v exceeds plausible bound %v", res.AbsErr.Mean, maxPlausible)
	}
}

func TestEvaluateEmptyWorkload(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	rel := releaseCells(t, tree, 1, 0.9, rng.New(8))
	if _, err := Evaluate(tree, rel, nil); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestEvaluateMoreBudgetLessError(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	const level = 2
	rects, err := RandomRects(rng.New(10), tree, level, 200)
	if err != nil {
		t.Fatal(err)
	}
	run := func(eps float64) float64 {
		rel := releaseCells(t, tree, level, eps, rng.New(11))
		res, err := Evaluate(tree, rel, rects)
		if err != nil {
			t.Fatal(err)
		}
		return res.AbsErr.Mean
	}
	tight := run(0.1)
	loose := run(0.9)
	if loose >= tight {
		t.Errorf("error with eps=0.9 (%v) not lower than eps=0.1 (%v)", loose, tight)
	}
}
