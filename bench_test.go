// Benchmarks regenerating every figure and ablation of
// internal/experiments (Figure 1, A1–A6).
//
// Each benchmark runs the corresponding experiment end to end (Phase 1
// specialization + Phase 2 noise injection + metric assembly) on the
// quick dataset so `go test -bench=.` finishes on a laptop; pass
// -benchtime and the gdpbench CLI's -preset dblp-scaled / dblp-full for
// larger runs. Custom metrics report reproduction quality alongside
// wall-time: rer_I7 is the measured relative error rate of the coarsest
// released level at εg≈1 (the paper's headline 0.35 on full DBLP).
package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dp"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

// classicalNoise is the paper's Phase-2 perturbation: Gaussian noise
// consuming p, calibrated with the classical bound.
func classicalNoise(p dp.Params) core.Noise {
	return core.Noise{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: p}
}

func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Seed: 1}
}

// BenchmarkFigure1 regenerates Figure 1 (RER vs εg for every information
// level).
func BenchmarkFigure1(b *testing.B) {
	cfg, err := experiments.DefaultFigure1Config(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	cfg.Trials = 2
	var lastTop float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		top := res.Series[len(res.Series)-1]
		lastTop = top.Y[len(top.Y)-1]
	}
	b.ReportMetric(lastTop, "rer_I7")
}

// BenchmarkAblationBudgetSplit regenerates ablation A1.
func BenchmarkAblationBudgetSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBudgetSplit(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCalibration regenerates ablation A2.
func BenchmarkAblationCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCalibration(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPartitioner regenerates ablation A3.
func BenchmarkAblationPartitioner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPartitioner(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAdjacency regenerates ablation A4.
func BenchmarkAblationAdjacency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAdjacency(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDelta regenerates ablation A5.
func BenchmarkAblationDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDeltaSweep(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMechanism regenerates ablation A7.
func BenchmarkAblationMechanism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMechanism(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConsistency regenerates experiment A9 (constrained
// inference).
func BenchmarkAblationConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunConsistency(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTopK regenerates experiment A8 (heavy-hitter utility).
func BenchmarkAblationTopK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTopK(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineScale regenerates ablation A6 (scalability).
func BenchmarkPipelineScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunScale(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase1Specialization isolates the hierarchy build (the
// pipeline's dominant cost) on the tiny DBLP preset.
func BenchmarkPhase1Specialization(b *testing.B) {
	g, err := datagen.Generate(datagen.DBLPTiny(1))
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	bis, err := partition.NewExpMechBisector(0.1, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierarchy.Build(g, hierarchy.Options{Rounds: 6, Bisector: bis}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(g.NumEdges()) * 8)
}

// BenchmarkPhase1SpecializationParallel is the same build with the worker
// pool engaged; the produced tree is bit-identical to the serial one.
func BenchmarkPhase1SpecializationParallel(b *testing.B) {
	g, err := datagen.Generate(datagen.DBLPTiny(1))
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	bis, err := partition.NewExpMechBisector(0.1, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierarchy.Build(g, hierarchy.Options{Rounds: 6, Bisector: bis, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(g.NumEdges()) * 8)
}

// BenchmarkPhase2Release isolates the per-level noisy count release.
func BenchmarkPhase2Release(b *testing.B) {
	g, err := datagen.Generate(datagen.DBLPTiny(1))
	if err != nil {
		b.Fatal(err)
	}
	tree, err := hierarchy.Build(g, hierarchy.Options{Rounds: 6, Bisector: partition.BalancedBisector{}})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(3)
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReleaseCount(tree, 4, core.ModelCells, classicalNoise(p), src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndPipeline measures the full public-API path.
func BenchmarkEndToEndPipeline(b *testing.B) {
	g, err := repro.GenerateDataset(repro.PresetDBLPTiny, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe, err := repro.NewPipeline(repro.Params{Epsilon: 0.9, Delta: 1e-5},
			repro.WithRounds(6), repro.WithSeed(uint64(i)+1), repro.WithPhase1Epsilon(0.1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pipe.Run(g); err != nil {
			b.Fatal(err)
		}
	}
}

// releaseCellsTree builds the nine-round tree the Phase-2 benchmarks
// release from (4^9 = 262144 cells at the deepest level).
func releaseCellsTree(b *testing.B) *hierarchy.Tree {
	b.Helper()
	g, err := datagen.Generate(datagen.DBLPTiny(1))
	if err != nil {
		b.Fatal(err)
	}
	tree, err := hierarchy.Build(g, hierarchy.Options{Rounds: 9, Bisector: partition.BalancedBisector{}})
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

// BenchmarkReleaseCells isolates the Phase-2 noisy histogram release at
// the deepest level through the engine hot path: chunked blocked-ziggurat
// fills fused with the counts add into a reused buffer
// (core.ReleaseCells, one worker). The pre-refactor per-cell polar loop measured
// 5,734,665 ns/op and 2 allocs/op on this setup; the scalar-ziggurat
// engine path of PR 2 measured ~1.7 ms, and the blocked 512-layer fill
// holds it near ~1.1 ms — the engine path must stay ≥4× faster than the
// polar loop and allocation-free (the gated record of the same kernel
// is the fine_kernel workload of benchmark/, release.cells_us.l0).
func BenchmarkReleaseCells(b *testing.B) {
	tree := releaseCellsTree(b)
	src := rng.New(5)
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	cells, err := tree.NumCells(0)
	if err != nil {
		b.Fatal(err)
	}
	var rel core.CellRelease
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.ReleaseCells(&rel, tree, 0, classicalNoise(p), src, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(cells) * 8)
}

// BenchmarkReleaseCellsWorkers shards the same release's noise pass
// across goroutines at noiseChunk granularity (per-chunk forked
// streams, so the output is bit-identical to workers=1), for the
// paper's Gaussian noise and the pure-ε Laplace noise. Speedup needs
// cores: on a 1-CPU runner the sub-benchmarks are flat and only the
// goroutine overhead shows.
func BenchmarkReleaseCellsWorkers(b *testing.B) {
	tree := releaseCellsTree(b)
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	cells, err := tree.NumCells(0)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []core.Noise{classicalNoise(p), {Mech: core.MechLaplace, Budget: p}} {
		for _, workers := range []int{1, 2, 4, 7} {
			b.Run(fmt.Sprintf("mech=%v/workers=%d", n.Mech, workers), func(b *testing.B) {
				src := rng.New(5)
				var rel core.CellRelease
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := core.ReleaseCells(&rel, tree, 0, n, src, workers); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(cells) * 8)
			})
		}
	}
}

// BenchmarkReleaseCellsAlloc is the same release into a fresh dst (a new
// Counts slice per call), the path publishers retaining every histogram
// pay.
func BenchmarkReleaseCellsAlloc(b *testing.B) {
	tree := releaseCellsTree(b)
	src := rng.New(5)
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	cells, err := tree.NumCells(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rel core.CellRelease
		if err := core.ReleaseCells(&rel, tree, 0, classicalNoise(p), src, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(cells) * 8)
}

// BenchmarkParallelTrials runs the Figure 1 trial loop serially and over
// a four-lane fan-out on a pre-generated graph (RunFigure1On, so dataset
// synthesis does not mask the loop); the produced figures are
// bit-identical, only the wall time differs.
func BenchmarkParallelTrials(b *testing.B) {
	g, err := datagen.Generate(datagen.DBLPTiny(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg, err := experiments.DefaultFigure1Config(experiments.Options{Quick: true, Seed: 1, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			cfg.Trials = 16
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunFigure1On(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
