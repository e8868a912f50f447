package query

import (
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/rng"
)

// noiselessRelease builds a cell release with sigma effectively zero by
// using a huge epsilon... classical calibration caps at eps<1, so instead
// construct the release manually from exact counts.
func noiselessRelease(t *testing.T, level int) core.CellRelease {
	t.Helper()
	tree := testTree(t)
	counts, err := tree.LevelCellCountsView(level)
	if err != nil {
		t.Fatal(err)
	}
	k, err := tree.NumSideGroups(level)
	if err != nil {
		t.Fatal(err)
	}
	noisy := make([]float64, len(counts))
	for i, c := range counts {
		noisy[i] = float64(c)
	}
	return core.CellRelease{Level: level, Counts: noisy, SideGroups: k}
}

func TestMarginalCountsExact(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	const level = 2
	rel := noiselessRelease(t, level)
	for _, side := range []bipartite.Side{bipartite.Left, bipartite.Right} {
		got, err := MarginalCounts(rel, side)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tree.SideGroupIncidentEdges(level, side)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-float64(want[i])) > 1e-9 {
				t.Errorf("side %v group %d: marginal %v, want %d", side, i, got[i], want[i])
			}
		}
	}
}

func TestMarginalCountsValidation(t *testing.T) {
	t.Parallel()
	rel := noiselessRelease(t, 2)
	if _, err := MarginalCounts(rel, bipartite.Side(0)); err == nil {
		t.Error("invalid side accepted")
	}
	bad := core.CellRelease{SideGroups: 3, Counts: []float64{1, 2}}
	if _, err := MarginalCounts(bad, bipartite.Left); err == nil {
		t.Error("malformed release accepted")
	}
}

func TestTopKGroupsNoiseless(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	const level = 2
	rel := noiselessRelease(t, level)
	prec, err := TopKPrecision(tree, rel, bipartite.Left, 2)
	if err != nil {
		t.Fatal(err)
	}
	if prec != 1 {
		t.Errorf("noiseless top-k precision = %v, want 1", prec)
	}
}

func TestTopKGroupsValidation(t *testing.T) {
	t.Parallel()
	rel := noiselessRelease(t, 2)
	if _, err := TopKGroups(rel, bipartite.Left, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopKGroups(rel, bipartite.Left, 1000); err == nil {
		t.Error("huge k accepted")
	}
	if _, err := TopKPrecision(nil, rel, bipartite.Left, 1); err == nil {
		t.Error("nil tree accepted")
	}
}

func TestTopKPrecisionDegradesWithNoise(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	const level = 1 // 8x8 grid
	const k = 3
	avg := func(eps float64) float64 {
		var sum float64
		const trials = 30
		for i := 0; i < trials; i++ {
			rel := releaseCells(t, tree, level, eps, rng.New(uint64(100+i)))
			p, err := TopKPrecision(tree, rel, bipartite.Left, k)
			if err != nil {
				t.Fatal(err)
			}
			sum += p
		}
		return sum / trials
	}
	strong := avg(0.9)
	weak := avg(0.05)
	if weak > strong {
		t.Errorf("top-k precision should degrade with less budget: eps=0.05 %v vs eps=0.9 %v", weak, strong)
	}
}
