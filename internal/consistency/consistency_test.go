package consistency

import (
	"errors"
	"fmt"
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
		Name: "cons", NumLeft: 200, NumRight: 300, NumEdges: 2500,
		LeftZipf: 1.9, RightZipf: 2.8, Seed: 5,
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

// releaseLevels produces noisy cell releases for levels hi..lo.
func releaseLevels(t testing.TB, tree *hierarchy.Tree, hi, lo int, eps float64, seed uint64) []core.CellRelease {
	t.Helper()
	src := rng.New(seed)
	var out []core.CellRelease
	for lvl := hi; lvl >= lo; lvl-- {
		var rel core.CellRelease
		n := core.Noise{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: dp.Params{Epsilon: eps, Delta: 1e-5}}
		if err := core.ReleaseCells(&rel, tree, lvl, n, src.Split(uint64(lvl)), 1); err != nil {
			t.Fatal(err)
		}
		out = append(out, rel)
	}
	return out
}

func TestEnforceProducesExactConsistency(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	raw := releaseLevels(t, tree, 3, 0, 0.5, 11)
	// Raw releases are (almost surely) inconsistent.
	if err := CheckConsistent(raw, 1e-6); err == nil {
		t.Fatal("raw noisy releases unexpectedly consistent")
	}
	fixed, err := Enforce(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConsistent(fixed, 1e-6); err != nil {
		t.Fatalf("enforced releases inconsistent: %v", err)
	}
	// Originals untouched.
	if err := CheckConsistent(raw, 1e-6); err == nil {
		t.Error("Enforce mutated its input")
	}
}

func TestEnforcePreservesNearExactInputs(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	// Build "noisy" releases with tiny sigma directly from exact counts:
	// enforcement should barely move them.
	var rels []core.CellRelease
	for lvl := 3; lvl >= 0; lvl-- {
		counts, err := tree.LevelCellCountsView(lvl)
		if err != nil {
			t.Fatal(err)
		}
		k, err := tree.NumSideGroups(lvl)
		if err != nil {
			t.Fatal(err)
		}
		noisy := make([]float64, len(counts))
		for i, c := range counts {
			noisy[i] = float64(c)
		}
		rels = append(rels, core.CellRelease{Level: lvl, SideGroups: k, Counts: noisy, Sigma: 1e-9})
	}
	fixed, err := Enforce(rels)
	if err != nil {
		t.Fatal(err)
	}
	for d := range fixed {
		for i := range fixed[d].Counts {
			if math.Abs(fixed[d].Counts[i]-rels[d].Counts[i]) > 1e-3 {
				t.Fatalf("level %d cell %d moved from %v to %v", rels[d].Level, i, rels[d].Counts[i], fixed[d].Counts[i])
			}
		}
	}
	// Exact inputs are already consistent (cells partition records).
	if err := CheckConsistent(fixed, 1e-3); err != nil {
		t.Fatal(err)
	}
}

func TestEnforceReducesError(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	exact := map[int][]float64{}
	for lvl := 3; lvl >= 0; lvl-- {
		counts, err := tree.LevelCellCountsView(lvl)
		if err != nil {
			t.Fatal(err)
		}
		e := make([]float64, len(counts))
		for i, c := range counts {
			e[i] = float64(c)
		}
		exact[lvl] = e
	}
	sqErr := func(rels []core.CellRelease) float64 {
		var total float64
		for _, r := range rels {
			for i, v := range r.Counts {
				d := v - exact[r.Level][i]
				total += d * d
			}
		}
		return total
	}
	var rawTotal, fixedTotal float64
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		raw := releaseLevels(t, tree, 3, 0, 0.5, uint64(100+trial))
		fixed, err := Enforce(raw)
		if err != nil {
			t.Fatal(err)
		}
		rawTotal += sqErr(raw)
		fixedTotal += sqErr(fixed)
	}
	if fixedTotal >= rawTotal {
		t.Errorf("consistency did not reduce squared error: raw %v, fixed %v", rawTotal, fixedTotal)
	}
}

func TestEnforceValidation(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	rels := releaseLevels(t, tree, 3, 0, 0.5, 1)

	if _, err := Enforce(nil); !errors.Is(err, ErrNoLevels) {
		t.Errorf("empty: %v", err)
	}
	if _, err := Enforce(rels[:1]); !errors.Is(err, ErrNoLevels) {
		t.Errorf("single level: %v", err)
	}
	// Non-contiguous levels.
	if _, err := Enforce([]core.CellRelease{rels[0], rels[2]}); !errors.Is(err, ErrNotContiguous) {
		t.Errorf("gap: %v", err)
	}
	// Corrupt grid.
	bad := make([]core.CellRelease, len(rels))
	copy(bad, rels)
	bad[1].SideGroups = 7
	if _, err := Enforce(bad); err == nil {
		t.Error("corrupt grid accepted")
	}
	// Zero sigma.
	copy(bad, rels)
	bad[0].Sigma = 0
	if _, err := Enforce(bad); !errors.Is(err, ErrBadRelease) {
		t.Errorf("zero sigma: %v", err)
	}
}

func TestEnforceOrdersInput(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	rels := releaseLevels(t, tree, 3, 0, 0.5, 2)
	// Shuffle: fine first.
	reversed := []core.CellRelease{rels[3], rels[2], rels[1], rels[0]}
	fixed, err := Enforce(reversed)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConsistent(fixed, 1e-6); err != nil {
		t.Fatal(err)
	}
	if fixed[0].Level != 3 {
		t.Errorf("output not coarse-first: level %d", fixed[0].Level)
	}
}

func TestCheckConsistentErrors(t *testing.T) {
	t.Parallel()
	if err := CheckConsistent(nil, 1e-6); !errors.Is(err, ErrNoLevels) {
		t.Errorf("empty: %v", err)
	}
	a := core.CellRelease{Level: 2, SideGroups: 2, Counts: make([]float64, 4)}
	b := core.CellRelease{Level: 1, SideGroups: 8, Counts: make([]float64, 64)}
	if err := CheckConsistent([]core.CellRelease{a, b}, 1e-6); !errors.Is(err, ErrNotNested) {
		t.Errorf("not nested: %v", err)
	}
}

// TestQuickEnforceInvariants: for random nested grid families with random
// noise, Enforce always yields exact consistency and preserves the
// inverse-variance-weighted total estimate's unbiasedness structure (the
// output stays finite and level totals agree).
func TestQuickEnforceInvariants(t *testing.T) {
	t.Parallel()
	src := rng.New(515)
	f := func(seed uint64) bool {
		r := src.Split(seed)
		depths := r.Intn(3) + 2 // 2..4 levels
		topLevel := depths + r.Intn(3)
		rels := make([]core.CellRelease, depths)
		k := 1
		for d := 0; d < depths; d++ {
			counts := make([]float64, k*k)
			for i := range counts {
				counts[i] = float64(r.Intn(1000)) + r.NormalSigma(50)
			}
			rels[d] = core.CellRelease{
				Level:      topLevel - d,
				SideGroups: k,
				Counts:     counts,
				Sigma:      1 + float64(r.Intn(100)),
			}
			k *= 2
		}
		fixed, err := Enforce(rels)
		if err != nil {
			return false
		}
		if err := CheckConsistent(fixed, 1e-6); err != nil {
			return false
		}
		for _, fr := range fixed {
			for _, v := range fr.Counts {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		// All levels agree on the total after enforcement.
		total := fixed[0].SumCells()
		for _, fr := range fixed[1:] {
			if math.Abs(fr.SumCells()-total) > 1e-6*(math.Abs(total)+1) {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f, 60); err != nil {
		t.Error(err)
	}
}

// quickCheck adapts testing/quick with a bounded count.
func quickCheck(f func(uint64) bool, count int) error {
	for i := 0; i < count; i++ {
		if !f(uint64(i) * 2654435761) {
			return fmt.Errorf("property failed on iteration %d", i)
		}
	}
	return nil
}

func TestEnforceTotalSumMatchesRootEstimate(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	raw := releaseLevels(t, tree, 3, 0, 0.5, 9)
	fixed, err := Enforce(raw)
	if err != nil {
		t.Fatal(err)
	}
	// After enforcement every level implies the same total.
	first := fixed[0].SumCells()
	for _, r := range fixed[1:] {
		if math.Abs(r.SumCells()-first) > 1e-6*math.Abs(first)+1e-6 {
			t.Errorf("level %d total %v != root total %v", r.Level, r.SumCells(), first)
		}
	}
}
