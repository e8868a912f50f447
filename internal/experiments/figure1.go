package experiments

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dp"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// PaperFigure1Reference holds the RER values the paper reports for
// Figure 1 at εg = 0.999 on full-scale DBLP, keyed by information level.
// These anchor the paper-vs-measured comparison in EXPERIMENTS.md; exact
// values are not expected to match (different substrate, different scale)
// but the shape — roughly 3–4× error decay per privilege level — must.
var PaperFigure1Reference = map[int]float64{
	7: 0.35,
	6: 0.11,
	5: 0.04,
	2: 0.0033,
	1: 0.002,
}

// Figure1Config fully specifies the Figure 1 reproduction. RunFigure1
// synthesizes Dataset once as a bare edge list and builds every trial's
// hierarchy from it; no Graph is materialized.
type Figure1Config struct {
	// Dataset is the synthetic DBLP stand-in.
	Dataset datagen.Config
	// Rounds is the number of specialization rounds (paper: 9).
	Rounds int
	// Levels are the released information levels (paper: 0..7).
	Levels []int
	// EpsGrid is the εg sweep (paper: 0.1..1).
	EpsGrid []float64
	// Delta is the Gaussian δ (the paper does not report one;
	// DefaultFigure1Config pins 1e-5 and ablation A5 sweeps it).
	Delta float64
	// Trials averages the RER over this many independent noise draws.
	Trials int
	// Phase1Epsilon is the per-cut exponential-mechanism budget; 0 uses
	// the non-private balanced baseline.
	Phase1Epsilon float64
	// Model and Calib select adjacency semantics and noise calibration.
	Model core.GroupModel
	Calib core.Calibration
	// Seed drives all randomness.
	Seed uint64
	// Workers fans independent trials across goroutine lanes; each lane's
	// share of the budget is then spent inside the trial, on the
	// hierarchy build and on the εg × level sweep. The produced figures
	// are bit-identical for any value.
	Workers int
}

// DefaultFigure1Config mirrors the paper's setup on the scaled dataset.
func DefaultFigure1Config(opts Options) (Figure1Config, error) {
	ds, err := opts.dataset()
	if err != nil {
		return Figure1Config{}, err
	}
	r := rounds(opts.Quick)
	return Figure1Config{
		Dataset:       ds,
		Rounds:        r,
		Levels:        levelsFor(r),
		EpsGrid:       epsGrid(opts.Quick),
		Delta:         1e-5,
		Trials:        opts.trials(20, 3),
		Phase1Epsilon: 0.1,
		Model:         core.ModelCells,
		Calib:         core.CalibrationClassical,
		Seed:          opts.Seed,
		Workers:       opts.Workers,
	}, nil
}

// Figure1Result carries the reproduced figure.
type Figure1Result struct {
	Config Figure1Config `json:"config"`
	// Series holds one measured RER curve per level, named like the
	// paper's legend ("I9,7").
	Series []metrics.Series `json:"series"`
	// Expected holds the closed-form E[RER] curves for cross-checking.
	Expected []metrics.Series `json:"expected"`
	// Table lists mean RER per (εg, level).
	Table metrics.Table `json:"table"`
	// Sensitivities records the mean per-level group sensitivity across
	// trials, indexed like Config.Levels.
	Sensitivities []float64 `json:"sensitivities"`
}

// RunFigure1 reproduces Figure 1: RER of the association-count query vs εg
// for every information level.
//
// The dataset is synthesized once as a bare edge list (datagen.EdgeList:
// no Graph, no CSR directions). Per trial, Phase 1 builds a fresh private
// hierarchy through hierarchy.BuildFromEdges over a SliceSource cursor of
// that shared, immutable list; the εg sweep then reuses that hierarchy
// (changing the Phase-2 budget does not change the grouping). RER is
// averaged across trials. Trials fan out across Config.Workers lanes —
// each consumes a stream pre-split in trial order, writes only its own
// result slot, and the sums reduce in trial order. Inside a trial the εg
// × level sweep fans out too: every (level, εg) pair owns a stream
// pre-split in serial order and writes only its own grid slot, so lanes
// left idle by a small trial count (dense grid, Trials < Workers) are
// spent on the sweep instead. The figure is bit-identical for any worker
// count.
func RunFigure1(cfg Figure1Config) (*Figure1Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	edges, numLeft, numRight, err := datagen.EdgeList(cfg.Dataset)
	if err != nil {
		return nil, fmt.Errorf("experiments: synthesizing edge list: %w", err)
	}
	src := rng.New(cfg.Seed)

	// Per trial: rer[li][ei] and exp[li][ei] measured on the trial's own
	// hierarchy, sens[li] its per-level sensitivity.
	type trialResult struct {
		rer, exp [][]float64
		sens     []float64
	}
	trialSrcs := splitPerTrial(src, cfg.Trials)
	results := make([]trialResult, cfg.Trials)
	buildWorkers := buildWorkersFor(cfg.Workers, cfg.Trials)
	err = runTrials(cfg.Workers, cfg.Trials, func(_, trial int) error {
		trialSrc := trialSrcs[trial]
		es := bipartite.NewSliceSource(numLeft, numRight, edges)
		tree, err := buildTrialTree(es, cfg.Rounds, cfg.Phase1Epsilon, buildWorkers, trialSrc.Split(1))
		if err != nil {
			return fmt.Errorf("experiments: trial %d phase 1: %w", trial, err)
		}
		noiseSrc := trialSrc.Split(2)
		res := trialResult{
			rer:  make([][]float64, len(cfg.Levels)),
			exp:  make([][]float64, len(cfg.Levels)),
			sens: make([]float64, len(cfg.Levels)),
		}
		for li, level := range cfg.Levels {
			res.rer[li] = make([]float64, len(cfg.EpsGrid))
			res.exp[li] = make([]float64, len(cfg.EpsGrid))
			sens, err := core.Sensitivity(tree, level, cfg.Model)
			if err != nil {
				return err
			}
			res.sens[li] = float64(sens)
		}
		// One pre-split stream per (level, εg) pair, derived in serial
		// order, then the sweep fans pairs across this lane's worker
		// share; each pair writes only its own grid slot, so the grid is
		// bit-identical for any sweep width.
		nEps := len(cfg.EpsGrid)
		pairSrcs := make([]*rng.Source, len(cfg.Levels)*nEps)
		for i := range pairSrcs {
			pairSrcs[i] = noiseSrc.Split(uint64(i))
		}
		sweepErr := runTrials(buildWorkers, len(pairSrcs), func(_, pi int) error {
			li, ei := pi/nEps, pi%nEps
			level, eps := cfg.Levels[li], cfg.EpsGrid[ei]
			n := core.Noise{Mech: core.MechGaussian, Calib: cfg.Calib, Budget: dp.Params{Epsilon: eps, Delta: cfg.Delta}}
			rel, err := core.ReleaseCount(tree, level, cfg.Model, n, pairSrcs[pi])
			if err != nil {
				return fmt.Errorf("experiments: trial %d level %d eps %v: %w", trial, level, eps, err)
			}
			res.rer[li][ei] = rel.RER
			exp, err := core.ExpectedRER(tree, level, cfg.Model, n)
			if err != nil {
				return err
			}
			res.exp[li][ei] = exp
			return nil
		})
		if sweepErr != nil {
			return sweepErr
		}
		results[trial] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Reduce in trial order: the same floating-point addition sequence a
	// serial loop performs.
	rerSum := make([][]float64, len(cfg.Levels))
	expSum := make([][]float64, len(cfg.Levels))
	for i := range rerSum {
		rerSum[i] = make([]float64, len(cfg.EpsGrid))
		expSum[i] = make([]float64, len(cfg.EpsGrid))
	}
	sensSum := make([]float64, len(cfg.Levels))
	for _, res := range results {
		for li := range cfg.Levels {
			sensSum[li] += res.sens[li]
			for ei := range cfg.EpsGrid {
				rerSum[li][ei] += res.rer[li][ei]
				expSum[li][ei] += res.exp[li][ei]
			}
		}
	}

	res := &Figure1Result{Config: cfg}
	res.Table = metrics.Table{
		Title:   "Figure 1 — relative error rate vs εg",
		Headers: append([]string{"εg"}, levelNames(cfg.Rounds, cfg.Levels)...),
	}
	res.Sensitivities = make([]float64, len(cfg.Levels))
	for li, level := range cfg.Levels {
		res.Sensitivities[li] = sensSum[li] / float64(cfg.Trials)
		name := fmt.Sprintf("I%d,%d", cfg.Rounds, level)
		measured := metrics.Series{Name: name, X: cfg.EpsGrid, Y: make([]float64, len(cfg.EpsGrid))}
		expected := metrics.Series{Name: name + " (expected)", X: cfg.EpsGrid, Y: make([]float64, len(cfg.EpsGrid))}
		for ei := range cfg.EpsGrid {
			measured.Y[ei] = rerSum[li][ei] / float64(cfg.Trials)
			expected.Y[ei] = expSum[li][ei] / float64(cfg.Trials)
		}
		res.Series = append(res.Series, measured)
		res.Expected = append(res.Expected, expected)
	}
	for ei, eps := range cfg.EpsGrid {
		row := make([]any, 0, len(cfg.Levels)+1)
		row = append(row, eps)
		for li := range cfg.Levels {
			row = append(row, res.Series[li].Y[ei])
		}
		res.Table.AddRow(row...)
	}
	return res, nil
}

// validate rejects configs cheaply, before any dataset synthesis.
func (cfg Figure1Config) validate() error {
	if cfg.Trials < 1 {
		return fmt.Errorf("experiments: trials must be >= 1 (got %d)", cfg.Trials)
	}
	if len(cfg.EpsGrid) == 0 || len(cfg.Levels) == 0 {
		return fmt.Errorf("experiments: empty eps grid or level list")
	}
	return nil
}

func levelNames(maxLevel int, levels []int) []string {
	out := make([]string, len(levels))
	for i, lvl := range levels {
		out[i] = fmt.Sprintf("I%d,%d", maxLevel, lvl)
	}
	return out
}

// RunFigure1Registry adapts RunFigure1 to the registry Runner signature.
func RunFigure1Registry(opts Options) (*Report, error) {
	cfg, err := DefaultFigure1Config(opts)
	if err != nil {
		return nil, err
	}
	res, err := RunFigure1(cfg)
	if err != nil {
		return nil, err
	}
	fig, err := metrics.RenderASCII(res.Series, metrics.PlotOptions{
		Title:  "Figure 1: RER vs εg (log y)",
		LogY:   true,
		XLabel: "εg",
		YLabel: "relative error rate",
	})
	if err != nil {
		return nil, err
	}
	report := &Report{
		Name:    "figure1",
		Title:   "Figure 1 — impact of εg on per-level RER",
		Tables:  []metrics.Table{res.Table},
		Series:  res.Series,
		Figures: []string{fig},
	}
	// Paper-vs-measured note at the largest εg.
	last := len(cfg.EpsGrid) - 1
	for li, lvl := range cfg.Levels {
		ref, ok := PaperFigure1Reference[lvl]
		if !ok {
			continue
		}
		report.Notes = append(report.Notes, fmt.Sprintf(
			"level %d at εg=%.3f: measured RER %.4f, paper %.4f (full-scale DBLP)",
			lvl, cfg.EpsGrid[last], res.Series[li].Y[last], ref))
	}
	return report, nil
}
