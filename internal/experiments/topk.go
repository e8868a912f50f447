package experiments

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rng"
)

// RunTopK is experiment A8 (extension): heavy-hitter identification
// utility. A data user at each tier computes the top-k heaviest left-side
// groups ("most prolific author groups") from the released noisy cell
// histogram; we measure set precision against the exact top-k. This
// quantifies a *task-level* utility the paper's scalar RER metric cannot
// see: coarse tiers may have usable counts yet useless rankings.
func RunTopK(opts Options) (*Report, error) {
	tree, err := standardTree(opts)
	if err != nil {
		return nil, err
	}
	trials := opts.trials(20, 4)
	grid := epsGrid(opts.Quick)
	const k = 4
	// Levels with at least 2k side groups so the task is non-trivial.
	var levels []int
	for _, lvl := range levelsFor(tree.MaxLevel()) {
		groups, err := tree.NumSideGroups(lvl)
		if err != nil {
			return nil, err
		}
		if groups >= 2*k {
			levels = append(levels, lvl)
		}
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("experiments: topk needs a level with >= %d side groups", 2*k)
	}
	levels = pickSpread(levels)

	table := metrics.Table{
		Title:   fmt.Sprintf("A8 — top-%d group precision from released histograms (%d trials)", k, trials),
		Headers: []string{"εg"},
	}
	series := make([]metrics.Series, len(levels))
	for li, lvl := range levels {
		table.Headers = append(table.Headers, fmt.Sprintf("level %d", lvl))
		series[li] = metrics.Series{Name: fmt.Sprintf("level %d", lvl)}
	}
	// Pre-split every noise stream in the serial (εg, level, trial) loop
	// order, then fan trials across Options.Workers lanes. A lane reuses
	// one CellRelease buffer through core.ReleaseCells — the released
	// histogram is consumed by TopKPrecision before the next release
	// overwrites it — and the precision means reduce in trial order, so
	// the table is bit-identical for any worker count.
	src := rng.New(opts.Seed + 99)
	srcs := make([][][]*rng.Source, len(grid))
	for ei, eps := range grid {
		srcs[ei] = make([][]*rng.Source, len(levels))
		for li, lvl := range levels {
			srcs[ei][li] = make([]*rng.Source, trials)
			for trial := 0; trial < trials; trial++ {
				srcs[ei][li][trial] = src.Split(uint64(trial)<<16 | uint64(lvl)<<8 | uint64(eps*1000))
			}
		}
	}
	precision := make([][][]float64, trials)
	scratch := make([]core.CellRelease, numTrialWorkers(opts.Workers, trials))
	err = runTrials(opts.Workers, trials, func(worker, trial int) error {
		rel := &scratch[worker]
		res := make([][]float64, len(grid))
		for ei, eps := range grid {
			res[ei] = make([]float64, len(levels))
			for li, lvl := range levels {
				if err := core.ReleaseCells(rel, tree, lvl, classical(dp.Params{Epsilon: eps, Delta: 1e-5}), srcs[ei][li][trial], 1); err != nil {
					return err
				}
				p, err := query.TopKPrecision(tree, *rel, bipartite.Left, k)
				if err != nil {
					return err
				}
				res[ei][li] = p
			}
		}
		precision[trial] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ei, eps := range grid {
		row := []any{eps}
		for li := range levels {
			var sum float64
			for trial := 0; trial < trials; trial++ {
				sum += precision[trial][ei][li]
			}
			mean := sum / float64(trials)
			row = append(row, mean)
			series[li].X = append(series[li].X, eps)
			series[li].Y = append(series[li].Y, mean)
		}
		table.AddRow(row...)
	}
	fig, err := metrics.RenderASCII(series, metrics.PlotOptions{
		Title:  fmt.Sprintf("A8: top-%d precision vs εg", k),
		XLabel: "εg", YLabel: "precision",
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Name: "topk", Title: "A8 — heavy-hitter identification utility",
		Tables: []metrics.Table{table}, Series: series, Figures: []string{fig},
		Notes: []string{
			"ranking quality tracks the inter-group gap / noise ratio, not RER: coarse levels rank usably despite large RER, while fine levels (many near-equal groups, noise fixed at the level's Δ) rank poorly even where counts look accurate",
		},
	}, nil
}
