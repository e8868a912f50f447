package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/release"
	"repro/internal/rng"
)

// RunBudgetSplit is ablation A1: per-level full εg (the paper's reading)
// versus composing one global εg across all levels with basic or advanced
// composition. Composed modes give each level a fraction of the budget,
// so their RER is uniformly worse; the table quantifies by how much.
func RunBudgetSplit(opts Options) (*Report, error) {
	ds, err := opts.dataset()
	if err != nil {
		return nil, err
	}
	g, err := datagen.Generate(ds)
	if err != nil {
		return nil, err
	}
	r := rounds(opts.Quick)
	levels := levelsFor(r)
	trials := opts.trials(10, 2)
	budget := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	modes := []release.Mode{
		release.ModePerLevel,
		release.ModeComposedBasic,
		release.ModeComposedAdvanced,
		release.ModeComposedRDP,
	}

	// One job per (mode, trial) pair; every pipeline is independently
	// seeded, so jobs fan out across lanes and the per-mode means reduce
	// in trial order — bit-identical to the serial nesting for any worker
	// count.
	jobs := len(modes) * trials
	perTrialRER := make([][][]float64, len(modes))
	for mi := range perTrialRER {
		perTrialRER[mi] = make([][]float64, trials)
	}
	buildWorkers := buildWorkersFor(opts.Workers, jobs)
	err = runTrials(opts.Workers, jobs, func(_, job int) error {
		mi, trial := job/trials, job%trials
		p, err := release.New(budget,
			release.WithRounds(r),
			release.WithLevels(levels),
			release.WithMode(modes[mi]),
			release.WithSeed(opts.Seed+uint64(trial)*7919),
			release.WithPhase1Epsilon(0.1),
			release.WithWorkers(buildWorkers),
		)
		if err != nil {
			return err
		}
		rel, err := p.Run(g)
		if err != nil {
			return fmt.Errorf("experiments: budget-split mode %v: %w", modes[mi], err)
		}
		rers := make([]float64, len(rel.Counts.Levels))
		for li, lr := range rel.Counts.Levels {
			rers[li] = lr.RER
		}
		perTrialRER[mi][trial] = rers
		return nil
	})
	if err != nil {
		return nil, err
	}
	meanRER := make(map[release.Mode][]float64, len(modes))
	for mi, mode := range modes {
		meanRER[mode] = make([]float64, len(levels))
		for trial := 0; trial < trials; trial++ {
			for li, rer := range perTrialRER[mi][trial] {
				meanRER[mode][li] += rer / float64(trials)
			}
		}
	}

	table := metrics.Table{
		Title:   fmt.Sprintf("A1 — budget split at εg=%.2f", budget.Epsilon),
		Headers: []string{"level", "per-level RER", "composed-basic RER", "composed-advanced RER", "composed-rdp RER"},
	}
	var series []metrics.Series
	for _, mode := range modes {
		s := metrics.Series{Name: mode.String()}
		for li, lvl := range levels {
			s.X = append(s.X, float64(lvl))
			s.Y = append(s.Y, meanRER[mode][li])
		}
		series = append(series, s)
	}
	for li, lvl := range levels {
		table.AddRow(lvl,
			meanRER[release.ModePerLevel][li],
			meanRER[release.ModeComposedBasic][li],
			meanRER[release.ModeComposedAdvanced][li],
			meanRER[release.ModeComposedRDP][li])
	}
	fig, err := metrics.RenderASCII(series, metrics.PlotOptions{
		Title: "A1: RER per level by budget mode (log y)", LogY: true,
		XLabel: "level", YLabel: "RER",
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Name: "budget-split", Title: "A1 — per-level vs composed budgets",
		Tables: []metrics.Table{table}, Series: series, Figures: []string{fig},
		Notes: []string{"per-level mode matches the paper; composed modes answer the 'one user sees all levels' threat model"},
	}, nil
}

// RunCalibration is ablation A2: classical Dwork–Roth σ versus the
// analytic (Balle–Wang) σ across the εg grid, including εg ≥ 1 where the
// classical formula is undefined.
func RunCalibration(opts Options) (*Report, error) {
	tree, err := standardTree(opts)
	if err != nil {
		return nil, err
	}
	grid := append(epsGrid(opts.Quick), 1.5, 2.0)
	const delta = 1e-5
	level := tree.MaxLevel() - 2
	if level < 0 {
		level = 0
	}
	sens, err := core.Sensitivity(tree, level, core.ModelCells)
	if err != nil {
		return nil, err
	}

	table := metrics.Table{
		Title:   fmt.Sprintf("A2 — Gaussian calibration at level %d (Δ=%d, δ=%g)", level, sens, delta),
		Headers: []string{"εg", "classical σ", "analytic σ", "σ ratio", "classical RER", "analytic RER"},
	}
	classical := metrics.Series{Name: "classical"}
	analytic := metrics.Series{Name: "analytic"}
	total := float64(tree.NumEdges())
	for _, eps := range grid {
		p := dp.Params{Epsilon: eps, Delta: delta}
		sigmaA, err := core.Sigma(p, sens, core.CalibrationAnalytic)
		if err != nil {
			return nil, err
		}
		expA := sigmaA * 0.7978845608028654 / total // sqrt(2/pi)
		analytic.X = append(analytic.X, eps)
		analytic.Y = append(analytic.Y, expA)

		if eps < 1 {
			sigmaC, err := core.Sigma(p, sens, core.CalibrationClassical)
			if err != nil {
				return nil, err
			}
			expC := sigmaC * 0.7978845608028654 / total
			classical.X = append(classical.X, eps)
			classical.Y = append(classical.Y, expC)
			table.AddRow(eps, sigmaC, sigmaA, sigmaA/sigmaC, expC, expA)
		} else {
			table.AddRow(eps, "n/a (ε≥1)", sigmaA, "-", "-", expA)
		}
	}
	fig, err := metrics.RenderASCII([]metrics.Series{classical, analytic}, metrics.PlotOptions{
		Title: "A2: expected RER, classical vs analytic (log y)", LogY: true,
		XLabel: "εg", YLabel: "E[RER]",
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Name: "calibration", Title: "A2 — classical vs analytic Gaussian",
		Tables:  []metrics.Table{table},
		Series:  []metrics.Series{classical, analytic},
		Figures: []string{fig},
		Notes: []string{
			"analytic calibration is uniformly tighter and extends the release to εg ≥ 1, where the paper's classical formula is undefined",
		},
	}, nil
}

// RunPartitioner is ablation A3: the exponential-mechanism bisector versus
// non-private baselines, measured by per-level cell skew (max cell /
// balanced cell) and the resulting expected RER at εg = 0.999.
func RunPartitioner(opts Options) (*Report, error) {
	ds, err := opts.dataset()
	if err != nil {
		return nil, err
	}
	g, err := datagen.Generate(ds)
	if err != nil {
		return nil, err
	}
	r := rounds(opts.Quick)
	src := rng.New(opts.Seed + 17)

	type entry struct {
		name string
		bis  partition.Bisector
	}
	expBis, err := partition.NewExpMechBisector(0.1, src.Split(1))
	if err != nil {
		return nil, err
	}
	randBis, err := partition.NewRandomBisector(src.Split(2))
	if err != nil {
		return nil, err
	}
	entries := []entry{
		{name: "expmech(0.1)", bis: expBis},
		{name: "balanced", bis: partition.BalancedBisector{}},
		{name: "random", bis: randBis},
		{name: "midpoint", bis: partition.MidpointBisector{}},
	}

	p := dp.Params{Epsilon: 0.999, Delta: 1e-5}
	skewTable := metrics.Table{
		Title:   "A3 — cell skew by bisector (max cell / balanced cell)",
		Headers: []string{"level"},
	}
	rerTable := metrics.Table{
		Title:   "A3 — expected RER at εg=0.999 by bisector",
		Headers: []string{"level"},
	}
	levels := levelsFor(r)
	skews := make([][]float64, len(entries))
	rers := make([][]float64, len(entries))
	var series []metrics.Series
	for ei, e := range entries {
		skewTable.Headers = append(skewTable.Headers, e.name)
		rerTable.Headers = append(rerTable.Headers, e.name)
		tree, err := hierarchy.BuildFromEdges(bipartite.NewGraphSource(g), hierarchy.Options{Rounds: r, Bisector: e.bis, Workers: opts.Workers})
		if err != nil {
			return nil, fmt.Errorf("experiments: partitioner %s: %w", e.name, err)
		}
		skews[ei] = make([]float64, len(levels))
		rers[ei] = make([]float64, len(levels))
		s := metrics.Series{Name: e.name}
		for li, lvl := range levels {
			prof, err := tree.Profile(lvl)
			if err != nil {
				return nil, err
			}
			skews[ei][li] = prof.Skew
			exp, err := core.ExpectedRER(tree, lvl, core.ModelCells, classical(p))
			if err != nil {
				return nil, err
			}
			rers[ei][li] = exp
			s.X = append(s.X, float64(lvl))
			s.Y = append(s.Y, exp)
		}
		series = append(series, s)
	}
	for li, lvl := range levels {
		skewRow := []any{lvl}
		rerRow := []any{lvl}
		for ei := range entries {
			skewRow = append(skewRow, skews[ei][li])
			rerRow = append(rerRow, rers[ei][li])
		}
		skewTable.AddRow(skewRow...)
		rerTable.AddRow(rerRow...)
	}
	fig, err := metrics.RenderASCII(series, metrics.PlotOptions{
		Title: "A3: expected RER by bisector (log y)", LogY: true,
		XLabel: "level", YLabel: "E[RER]",
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Name: "partitioner", Title: "A3 — Phase-1 bisector comparison",
		Tables: []metrics.Table{skewTable, rerTable}, Series: series, Figures: []string{fig},
		Notes: []string{"skew drives sensitivity: balanced cuts minimize the max cell, random cuts inflate it"},
	}, nil
}

// RunAdjacency is ablation A4: the primary cell (record-group) adjacency
// versus node-group adjacency, which charges a group's full incident edge
// set and therefore needs more noise.
func RunAdjacency(opts Options) (*Report, error) {
	tree, err := standardTree(opts)
	if err != nil {
		return nil, err
	}
	p := dp.Params{Epsilon: 0.999, Delta: 1e-5}
	levels := levelsFor(tree.MaxLevel())
	table := metrics.Table{
		Title:   "A4 — adjacency semantics at εg=0.999",
		Headers: []string{"level", "cell Δ", "node-group Δ", "Δ ratio", "cell RER", "node-group RER"},
	}
	cellSeries := metrics.Series{Name: "cells"}
	nodeSeries := metrics.Series{Name: "node-groups"}
	for _, lvl := range levels {
		cellSens, err := core.Sensitivity(tree, lvl, core.ModelCells)
		if err != nil {
			return nil, err
		}
		nodeSens, err := core.Sensitivity(tree, lvl, core.ModelNodeGroups)
		if err != nil {
			return nil, err
		}
		cellRER, err := core.ExpectedRER(tree, lvl, core.ModelCells, classical(p))
		if err != nil {
			return nil, err
		}
		nodeRER, err := core.ExpectedRER(tree, lvl, core.ModelNodeGroups, classical(p))
		if err != nil {
			return nil, err
		}
		ratio := float64(nodeSens) / float64(cellSens)
		table.AddRow(lvl, cellSens, nodeSens, ratio, cellRER, nodeRER)
		cellSeries.X = append(cellSeries.X, float64(lvl))
		cellSeries.Y = append(cellSeries.Y, cellRER)
		nodeSeries.X = append(nodeSeries.X, float64(lvl))
		nodeSeries.Y = append(nodeSeries.Y, nodeRER)
	}
	fig, err := metrics.RenderASCII([]metrics.Series{cellSeries, nodeSeries}, metrics.PlotOptions{
		Title: "A4: expected RER by adjacency model (log y)", LogY: true,
		XLabel: "level", YLabel: "E[RER]",
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Name: "adjacency", Title: "A4 — cell vs node-group adjacency",
		Tables:  []metrics.Table{table},
		Series:  []metrics.Series{cellSeries, nodeSeries},
		Figures: []string{fig},
		Notes: []string{
			"node-group adjacency protects 'remove a whole author group' and pays for it with a strictly larger sensitivity at every level",
		},
	}, nil
}

// RunDeltaSweep is ablation A5: the effect of the unreported δ on per-
// level RER at fixed εg = 0.5.
func RunDeltaSweep(opts Options) (*Report, error) {
	tree, err := standardTree(opts)
	if err != nil {
		return nil, err
	}
	const eps = 0.5
	deltas := []float64{1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8}
	levels := pickSpread(levelsFor(tree.MaxLevel()))
	table := metrics.Table{
		Title:   fmt.Sprintf("A5 — δ sweep at εg=%.1f (expected RER)", eps),
		Headers: []string{"δ"},
	}
	for _, lvl := range levels {
		table.Headers = append(table.Headers, fmt.Sprintf("level %d", lvl))
	}
	var series []metrics.Series
	for _, lvl := range levels {
		series = append(series, metrics.Series{Name: fmt.Sprintf("level %d", lvl)})
	}
	for _, delta := range deltas {
		row := []any{delta}
		for li, lvl := range levels {
			exp, err := core.ExpectedRER(tree, lvl, core.ModelCells, classical(dp.Params{Epsilon: eps, Delta: delta}))
			if err != nil {
				return nil, err
			}
			row = append(row, exp)
			series[li].X = append(series[li].X, -math.Log10(delta))
			series[li].Y = append(series[li].Y, exp)
		}
		table.AddRow(row...)
	}
	fig, err := metrics.RenderASCII(series, metrics.PlotOptions{
		Title: "A5: expected RER vs -log10(δ) (log y)", LogY: true,
		XLabel: "-log10(δ)", YLabel: "E[RER]",
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Name: "delta", Title: "A5 — δ sensitivity",
		Tables: []metrics.Table{table}, Series: series, Figures: []string{fig},
		Notes: []string{"RER grows only like √log(1/δ): the unreported δ cannot change the paper's conclusions"},
	}, nil
}

// RunScale is ablation A6: pipeline wall-time versus graph size, backing
// the paper's scalability claim.
func RunScale(opts Options) (*Report, error) {
	sizes := []int{10_000, 40_000, 160_000}
	if opts.Quick {
		sizes = []int{2_000, 8_000}
	}
	r := rounds(opts.Quick)
	table := metrics.Table{
		Title:   "A6 — pipeline wall time vs graph size",
		Headers: []string{"edges", "gen ms", "phase1 ms", "phase2 ms", "edges/s (phase1)"},
	}
	speed := metrics.Series{Name: "phase1 edges/s"}
	for _, edges := range sizes {
		cfg := datagen.Config{
			Name:    fmt.Sprintf("scale-%d", edges),
			NumLeft: edges / 5, NumRight: edges / 3, NumEdges: edges,
			LeftZipf: 1.9, RightZipf: 2.8, Seed: opts.Seed + uint64(edges),
		}
		t0 := time.Now()
		g, err := datagen.Generate(cfg)
		if err != nil {
			return nil, err
		}
		genMS := time.Since(t0).Seconds() * 1000

		t1 := time.Now()
		tree, err := buildTrialTree(bipartite.NewGraphSource(g), r, 0.1, opts.Workers, rng.New(opts.Seed+uint64(edges)+1))
		if err != nil {
			return nil, err
		}
		p1MS := time.Since(t1).Seconds() * 1000

		t2 := time.Now()
		src := rng.New(opts.Seed + uint64(edges) + 2)
		for _, lvl := range levelsFor(r) {
			if _, err := core.ReleaseCount(tree, lvl, core.ModelCells, classical(dp.Params{Epsilon: 0.5, Delta: 1e-5}), src); err != nil {
				return nil, err
			}
		}
		p2MS := time.Since(t2).Seconds() * 1000

		eps := float64(edges) / (p1MS / 1000)
		table.AddRow(edges, genMS, p1MS, p2MS, eps)
		speed.X = append(speed.X, float64(edges))
		speed.Y = append(speed.Y, eps)
	}
	return &Report{
		Name: "scale", Title: "A6 — scalability",
		Tables: []metrics.Table{table}, Series: []metrics.Series{speed},
		Notes: []string{"phase 1 is the dominant cost and scales near-linearly in |E| (one degree scan per side per round)"},
	}, nil
}

// standardTree builds the deterministic balanced hierarchy most ablations
// share.
func standardTree(opts Options) (*hierarchy.Tree, error) {
	ds, err := opts.dataset()
	if err != nil {
		return nil, err
	}
	g, err := datagen.Generate(ds)
	if err != nil {
		return nil, err
	}
	return hierarchy.BuildFromEdges(bipartite.NewGraphSource(g), hierarchy.Options{
		Rounds:   rounds(opts.Quick),
		Bisector: partition.BalancedBisector{},
		Workers:  opts.Workers,
	})
}

// pickSpread returns up to three representative levels (finest, middle,
// coarsest released).
func pickSpread(levels []int) []int {
	if len(levels) <= 3 {
		return levels
	}
	return []int{levels[0], levels[len(levels)/2], levels[len(levels)-1]}
}
