// Package experiments regenerates the paper's evaluation (Figure 1) and
// the ablations A1–A6 (ablations.go). Every experiment is a
// named Runner producing a Report of tables, series and ASCII figures;
// cmd/gdpbench and the repository benchmarks drive this registry.
package experiments

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/rng"
)

// Options configures a registry run.
type Options struct {
	// Preset names the datagen preset; empty selects dblp-scaled (or
	// dblp-tiny in Quick mode).
	Preset string
	// Seed drives all randomness.
	Seed uint64
	// Trials overrides the per-experiment default trial count when > 0.
	Trials int
	// Quick shrinks datasets and grids for fast runs (used by tests).
	Quick bool
	// Workers bounds the experiment's total parallelism: independent
	// trials fan out across this many lanes (each trial owns a pre-split
	// RNG stream and results reduce in trial order), and experiments
	// without a trial dimension spend it on Phase-1 build parallelism
	// instead. Results are bit-identical for any value.
	Workers int
}

// EffectivePreset returns the dataset preset a run with these options
// actually uses: the explicit Preset, or the quick/full default.
func (o Options) EffectivePreset() string {
	if o.Preset != "" {
		return o.Preset
	}
	if o.Quick {
		return datagen.PresetDBLPTiny
	}
	return datagen.PresetDBLPScaled
}

// classical is the paper's Phase-2 perturbation: Gaussian noise consuming
// p, calibrated with the classical bound.
func classical(p dp.Params) core.Noise {
	return core.Noise{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: p}
}

// dataset resolves the configured dataset.
func (o Options) dataset() (datagen.Config, error) {
	return datagen.ByName(o.EffectivePreset(), o.Seed+1)
}

// trials returns the effective trial count.
func (o Options) trials(def, quickDef int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick {
		return quickDef
	}
	return def
}

// Report is an experiment's rendered output.
type Report struct {
	// Name is the registry key; Title describes the experiment.
	Name  string `json:"name"`
	Title string `json:"title"`
	// Tables holds the numeric results.
	Tables []metrics.Table `json:"tables"`
	// Series holds the plottable curves (one set per figure).
	Series []metrics.Series `json:"series"`
	// Figures holds ASCII renderings of the series.
	Figures []string `json:"figures"`
	// Notes records paper-vs-measured commentary.
	Notes []string `json:"notes"`
}

// Runner executes one experiment.
type Runner func(Options) (*Report, error)

// ErrUnknownExperiment reports a name missing from the registry.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// registry maps experiment names to runners. Populated in init-free style
// via the literal below; keys are the names gdpbench -exp takes.
var registry = map[string]Runner{
	"figure1":      RunFigure1Registry,
	"budget-split": RunBudgetSplit,
	"calibration":  RunCalibration,
	"partitioner":  RunPartitioner,
	"adjacency":    RunAdjacency,
	"delta":        RunDeltaSweep,
	"scale":        RunScale,
	"mechanism":    RunMechanism,
	"topk":         RunTopK,
	"consistency":  RunConsistency,
}

// Names lists the registered experiments in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment.
func Run(name string, opts Options) (*Report, error) {
	runner, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownExperiment, name, Names())
	}
	return runner(opts)
}

// epsGrid returns the εg sweep: the paper's 0.1..1 range.
func epsGrid(quick bool) []float64 {
	if quick {
		return []float64{0.1, 0.5, 0.999}
	}
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999}
}

// paperRounds is the paper's nine specialization rounds; quick runs use
// fewer so tiny graphs still have multi-record cells.
func rounds(quick bool) int {
	if quick {
		return 6
	}
	return 9
}

// levelsFor returns the released levels: the paper's I9,0..I9,7 (root and
// root−1 are withheld).
func levelsFor(r int) []int {
	hi := r - 2
	if hi < 0 {
		hi = 0
	}
	levels := make([]int, 0, hi+1)
	for lvl := 0; lvl <= hi; lvl++ {
		levels = append(levels, lvl)
	}
	return levels
}

// buildTrialTree generates Phase 1 once for a trial over an edge source,
// with the bisector partition.ForEpsilon chooses for phase1Eps. workers
// parallelizes the build without changing its output.
func buildTrialTree(src bipartite.EdgeSource, rnds int, phase1Eps float64, workers int, rsrc *rng.Source) (*hierarchy.Tree, error) {
	bis, err := partition.ForEpsilon(phase1Eps, rsrc)
	if err != nil {
		return nil, err
	}
	return hierarchy.BuildFromEdges(src, hierarchy.Options{Rounds: rnds, Bisector: bis, Workers: workers})
}
