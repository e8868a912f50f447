package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

var (
	goldenBudget = dp.Params{Epsilon: 0.5, Delta: 1e-5}
	goldenSpecs  = []struct {
		name  string
		noise Noise
	}{
		{"gaussian-classical", classical(goldenBudget)},
		{"gaussian-analytic", Noise{Mech: MechGaussian, Calib: CalibrationAnalytic, Budget: goldenBudget}},
		{"external-sigma", external(3.5, goldenBudget)},
		{"external-sigma-zero", external(0, goldenBudget)},
		{"laplace", Noise{Mech: MechLaplace, Budget: goldenBudget}},
		{"geometric", Noise{Mech: MechGeometric, Budget: goldenBudget}},
	}
)

const (
	goldenSeed       = 2024
	goldenCountLevel = 3
	goldenCellsLevel = 0 // 4^8 cells: eight noise chunks, so four workers all draw
)

// goldenCount releases the count under n and returns the reported σ and
// the released value.
func goldenCount(t *hierarchy.Tree, n Noise) (float64, []float64, error) {
	rel, err := ReleaseCount(t, goldenCountLevel, ModelCells, n, rng.New(goldenSeed))
	return rel.Sigma, []float64{rel.NoisyCount}, err
}

// goldenCells releases the cell histogram under n and returns the
// reported σ and the released cells.
func goldenCells(t *hierarchy.Tree, n Noise, workers int) (float64, []float64, error) {
	var rel CellRelease
	err := ReleaseCells(&rel, t, goldenCellsLevel, n, rng.New(goldenSeed), workers)
	return rel.Sigma, rel.Counts, err
}

// goldenHash is the sha256 of the reported σ followed by the released
// values, as little-endian IEEE-754 bits.
func goldenHash(sigma float64, values []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range append([]float64{sigma}, values...) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// emptyTree is a hierarchy over a graph with no associations: every
// level's sensitivity is 0, so no mechanism draws anything.
func emptyTree(t testing.TB) *hierarchy.Tree {
	t.Helper()
	b := bipartite.NewBuilder(0)
	b.SetNumLeft(16)
	b.SetNumRight(16)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hierarchy.Build(g, hierarchy.Options{Rounds: 3, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// goldenKernel pins every Phase-2 release path bit for bit. It was
// generated from the twelve entry points the Noise kernel replaced (one
// function per mechanism × scale source × buffer × worker variant), so
// the kernel provably draws what they drew; the w1/w4 rows of one spec
// agree (worker-count bit-identity). The cells rows of every spec that
// draws non-integer noise were re-pinned once, when released cells
// became integers; the Laplace and geometric cells rows were re-pinned
// once more, when their noise moved onto the chunked fill's forked
// streams. Every count row and every σ = 0 row is still the original.
var goldenKernel = map[string]string{
	"gaussian-classical/count":        "0a911f738831f04c7a5caa5309fd2f9e6214594377af26e3d1a7b66f0a6db589",
	"gaussian-classical/cells/w1":     "6dac30b968e2e7032a392925edf07d1511d9ae854918311cb27711972894b1c3",
	"gaussian-classical/cells/w4":     "6dac30b968e2e7032a392925edf07d1511d9ae854918311cb27711972894b1c3",
	"gaussian-classical/empty/count":  "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
	"gaussian-classical/empty/cells":  "20aa497d9bd4c19e851e3df6e386700faada213db38acf7679f6365832830b3d",
	"gaussian-analytic/count":         "50b412cc9515cefcc726e111046444bdedb0882d72e1bb1c3cd4f0c21448e331",
	"gaussian-analytic/cells/w1":      "8b1a04c85dbd7e4031ef40afe04733a9ee9ece81f55ef45f67866f98b3e547dd",
	"gaussian-analytic/cells/w4":      "8b1a04c85dbd7e4031ef40afe04733a9ee9ece81f55ef45f67866f98b3e547dd",
	"gaussian-analytic/empty/count":   "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
	"gaussian-analytic/empty/cells":   "20aa497d9bd4c19e851e3df6e386700faada213db38acf7679f6365832830b3d",
	"external-sigma/count":            "4f3a0991af5f3b99b7611ccfc823bc29e768b93296eb36327c5923b96463da04",
	"external-sigma/cells/w1":         "7f29a3520efb510485f76a91389b199ddbd7b3653fa9d30533d6aa2c36ec3cc6",
	"external-sigma/cells/w4":         "7f29a3520efb510485f76a91389b199ddbd7b3653fa9d30533d6aa2c36ec3cc6",
	"external-sigma/empty/count":      "f4f5610ac0312d4d8d91e2492b47286392c721f6e0c74b7bbef07c1bd07b1c59",
	"external-sigma/empty/cells":      "acedb174f51c2af77aeff07c25d62a4a80444d7717e1bcdb111c0246ff5960b4",
	"external-sigma-zero/count":       "c5e663147af98e3bb366667bb1b863d50ef050632c05e689e7c5270b6b40a790",
	"external-sigma-zero/cells/w1":    "a5c1fc76e18d45904cb7f9894f7906bd8f8124b761ea85f21afc3207da8b0e6e",
	"external-sigma-zero/cells/w4":    "a5c1fc76e18d45904cb7f9894f7906bd8f8124b761ea85f21afc3207da8b0e6e",
	"external-sigma-zero/empty/count": "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
	"external-sigma-zero/empty/cells": "20aa497d9bd4c19e851e3df6e386700faada213db38acf7679f6365832830b3d",
	"laplace/count":                   "88c5bd319283361d1f86508359fa4d62c21326bdfd5b3320fdb86d81819dd949",
	"laplace/cells/w1":                "e52c54d1c469ea411b39c0a5557a769ba0f598b8c0e1572a11b14d89e1c26c03",
	"laplace/cells/w4":                "e52c54d1c469ea411b39c0a5557a769ba0f598b8c0e1572a11b14d89e1c26c03",
	"laplace/empty/count":             "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
	"laplace/empty/cells":             "20aa497d9bd4c19e851e3df6e386700faada213db38acf7679f6365832830b3d",
	"geometric/count":                 "27fe000977af6c624d1727ddf40db7c8f31fc7cf67c0748a55ebdbce1eb79c56",
	"geometric/cells/w1":              "b81c195fcc9f16605881c833815a1d63ed95bfc19fdaaa896d09bb81e1604efa",
	"geometric/cells/w4":              "b81c195fcc9f16605881c833815a1d63ed95bfc19fdaaa896d09bb81e1604efa",
	"geometric/empty/count":           "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
	"geometric/empty/cells":           "20aa497d9bd4c19e851e3df6e386700faada213db38acf7679f6365832830b3d",
}

func TestReleaseKernelGolden(t *testing.T) {
	t.Parallel()
	full, empty := deepTree(t, 8), emptyTree(t)
	check := func(key string, sigma float64, values []float64, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", key, err)
			return
		}
		if got := goldenHash(sigma, values); got != goldenKernel[key] {
			t.Errorf("%s: hash %s, want %s", key, got, goldenKernel[key])
		}
	}
	for _, spec := range goldenSpecs {
		sigma, values, err := goldenCount(full, spec.noise)
		check(spec.name+"/count", sigma, values, err)
		for _, workers := range []int{1, 4} {
			sigma, values, err := goldenCells(full, spec.noise, workers)
			check(fmt.Sprintf("%s/cells/w%d", spec.name, workers), sigma, values, err)
		}
		sigma, values, err = goldenCount(empty, spec.noise)
		check(spec.name+"/empty/count", sigma, values, err)
		sigma, values, err = goldenCells(empty, spec.noise, 1)
		check(spec.name+"/empty/cells", sigma, values, err)
	}
	if want := len(goldenSpecs) * 5; len(goldenKernel) != want {
		t.Errorf("golden table has %d rows, want %d", len(goldenKernel), want)
	}
}
