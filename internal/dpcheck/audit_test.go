package dpcheck

// The exact Phase-2 audit of what ships: every release a release.Pipeline
// artifact carries and every level view a serve.Session returns, checked
// against every neighbour of the level and model its label names.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/release"
	"repro/internal/rng"
	"repro/internal/serve"
)

// gridBudget is the global (εg, δ) of every audited pipeline run: below
// 1 per query, so the classical calibration is valid in every mode.
var gridBudget = dp.Params{Epsilon: 0.9, Delta: 1e-5}

// servePerQuery is what one audited serving query pays for.
var servePerQuery = dp.Params{Epsilon: 0.5, Delta: 1e-5}

var (
	calibrations = []core.Calibration{core.CalibrationClassical, core.CalibrationAnalytic}
	modes        = []release.Mode{release.ModePerLevel, release.ModeComposedBasic, release.ModeComposedAdvanced, release.ModeComposedRDP}
)

// TestRegisteredStrategiesNoiseWithinBudget audits every registered
// strategy on the corpus: every pipeline run (each group model ×
// calibration × budget mode, cell histograms on) and every served level
// view (each model × calibration). Each release's worst neighbour must
// cost no more than its label, and exactly its label where the
// calibration is exact — so a scale, a sensitivity or a calibration that
// under-noises any release fails here, and one that over-noises an exact
// release fails too.
func TestRegisteredStrategiesNoiseWithinBudget(t *testing.T) {
	t.Parallel()
	fxs := corpusFixtures(t)
	for _, name := range release.Strategies.Names() {
		strat, err := release.Strategies.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var gap gapLog
			for _, fx := range fxs {
				for _, model := range models {
					for _, calib := range calibrations {
						for _, mode := range modes {
							auditPipeline(t, fx, strat, model, calib, mode, &gap)
						}
						auditServe(t, fx, strat, model, calib, &gap)
					}
				}
			}
			gap.log(t)
		})
	}
}

// auditPipeline runs one pipeline configuration on the fixture's graph
// and audits every count and cell release of its artifact.
func auditPipeline(t *testing.T, fx *fixture, strat *release.Strategy, model core.GroupModel, calib core.Calibration, mode release.Mode, gap *gapLog) {
	t.Helper()
	where := fmt.Sprintf("pipeline %s/%s/%s/%s", fx.name, model, calib, mode)
	p, err := release.New(gridBudget, release.WithRounds(corpusRounds), release.WithModel(model),
		release.WithCalibration(calib), release.WithStrategy(strat.Name()), release.WithMode(mode),
		release.WithCellHistograms(true))
	if err != nil {
		if mode == release.ModeComposedRDP && strat.Mech != core.MechGaussian && errors.Is(err, release.ErrBadOption) {
			return // composed-rdp scales Gaussian noise only
		}
		t.Fatalf("%s: %v", where, err)
	}
	rel, err := p.RunFromEdges(fx.source())
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	sameTree(t, where, fx.tree, rel.Tree())
	for _, c := range rel.Counts.Levels {
		audit(t, where+" count", fx, countLabel(t, c), countShift)
	}
	for _, c := range rel.Cells {
		l := cellsLabel(t, c)
		audit(t, where+" cells", fx, l, cellShift)
		gap.note(where, fx, l, model)
	}
}

// auditServe serves every level view of the fixture's graph from one
// pinned session and audits its count and its cells, at the PerQuery the
// view's ledger op pays for each.
func auditServe(t *testing.T, fx *fixture, strat *release.Strategy, model core.GroupModel, calib core.Calibration, gap *gapLog) {
	t.Helper()
	where := fmt.Sprintf("serve %s/%s/%s", fx.name, model, calib)
	reg, err := serve.Open(serve.Config{
		Budget: dp.Params{Epsilon: 10, Delta: 1e-3}, PerQuery: servePerQuery, Rounds: corpusRounds,
		Model: model, Calib: calib, Strategy: strat.Name(), Seed: 1, MaxCacheEntries: -1,
	})
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	defer reg.Close()
	ds, err := reg.AddDataset(fx.name, fx.source())
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	sameTree(t, where, fx.tree, ds.Tree())
	sess := ds.SessionAt(1)
	pays := dp.Params{Epsilon: 2 * servePerQuery.Epsilon, Delta: 2 * servePerQuery.Delta}
	for level := range fx.tree.MaxLevel() + 1 {
		v, err := sess.ReleaseLevel(level)
		if err != nil {
			t.Fatalf("%s level %d: %v", where, level, err)
		}
		if ops := ds.Ops(); ops[len(ops)-1].Cost != pays {
			t.Fatalf("%s level %d: the view's op paid %v, want %v (count + cells)", where, level, ops[len(ops)-1].Cost, pays)
		}
		count, cells := countLabel(t, v.Count), cellsLabel(t, *v.Cells)
		for _, l := range []label{count, cells} {
			if l.eps != servePerQuery.Epsilon || l.delta > servePerQuery.Delta {
				t.Fatalf("%s level %d: a release labelled (%v, %v) in a view paying %v per release", where, level, l.eps, l.delta, servePerQuery)
			}
		}
		audit(t, where+" count", fx, count, countShift)
		audit(t, where+" cells", fx, cells, cellShift)
		gap.note(where, fx, cells, model)
	}
}

// gapLog records what a cell release costs against the neighbours of the
// model its run was configured with, when that is not the cells model its
// label names: core.ReleaseCells always resolves under core.ModelCells,
// so under a node-groups configuration one node group shifts a whole row
// or column of cells. Reported, not failed.
type gapLog struct {
	worst map[core.GroupModel]gapCase
}

type gapCase struct {
	ratio       float64 // loss / label
	loss, bound float64
	what        string
}

func (g *gapLog) note(where string, fx *fixture, l label, configured core.GroupModel) {
	if configured == l.model {
		return
	}
	worst, group, _ := worstLoss(l, fx.nbs[levelModel{l.level, configured}], cellShift)
	ratio := worst / l.bound()
	if g.worst == nil {
		g.worst = map[core.GroupModel]gapCase{}
	}
	if c, ok := g.worst[configured]; !ok || ratio > c.ratio {
		g.worst[configured] = gapCase{ratio, worst, l.bound(), fmt.Sprintf("%s cells level %d, removing %s", where, l.level, group)}
	}
}

func (g *gapLog) log(t *testing.T) {
	for _, model := range models {
		if c, ok := g.worst[model]; ok {
			t.Logf("cell releases of %s-configured runs against %s neighbours: worst exact loss %.4g against the label's %.4g (×%.3g), %s",
				model, model, c.loss, c.bound, c.ratio, c.what)
		}
	}
}

// TestAuditFlagsUnderNoisedRelease is the negative control: a Laplace
// count and cell release that spend ε = 3 while claiming ε = 1 must fail
// the audit's bound at every level of every corpus graph.
func TestAuditFlagsUnderNoisedRelease(t *testing.T) {
	t.Parallel()
	const claimed = 1.0
	n := core.Noise{Mech: core.MechLaplace, Budget: dp.Params{Epsilon: 3 * claimed}}
	for _, fx := range corpusFixtures(t) {
		for level := range fx.tree.MaxLevel() + 1 {
			count, err := core.ReleaseCount(fx.tree, level, core.ModelCells, n, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			var cells core.CellRelease
			if err := core.ReleaseCells(&cells, fx.tree, level, n, rng.New(2), 1); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				l     label
				shift func(neighbour) []int64
			}{{countLabel(t, count), countShift}, {cellsLabel(t, cells), cellShift}} {
				c.l.eps = claimed
				if worst, _, _ := worstLoss(c.l, fx.nbs[levelModel{level, core.ModelCells}], c.shift); worst <= claimed*(1+1e-9) {
					t.Errorf("%s level %d: an ε=3 release claiming ε=%v costs %v, not caught", fx.name, level, claimed, worst)
				}
			}
		}
	}
}

// TestGroupDPReleaseWithinBudget is the headline check on a skewed
// dataset: the paper's Gaussian count and cell releases at every level,
// against every neighbour missing one cell group, stay within (εg, δ).
func TestGroupDPReleaseWithinBudget(t *testing.T) {
	t.Parallel()
	fx := newFixture(t, skewed(t), 3)
	n := core.Noise{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: dp.Params{Epsilon: 0.9, Delta: 1e-4}}
	for level := range fx.tree.MaxLevel() + 1 {
		count, err := core.ReleaseCount(fx.tree, level, core.ModelCells, n, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		var cells core.CellRelease
		if err := core.ReleaseCells(&cells, fx.tree, level, n, rng.New(2), 1); err != nil {
			t.Fatal(err)
		}
		audit(t, "skewed count", fx, countLabel(t, count), countShift)
		audit(t, "skewed cells", fx, cellsLabel(t, cells), cellShift)
	}
}

// TestGroupDPIndividualNoiseFailsGroupPrivacy is the paper's motivating
// negative result: a count calibrated for individual DP (Δ = 1) does not
// protect a group. Against the neighbour missing the level's largest
// cell its exact δ at εg is far past the label's.
func TestGroupDPIndividualNoiseFailsGroupPrivacy(t *testing.T) {
	t.Parallel()
	fx := newFixture(t, skewed(t), 3)
	const level = 2
	n := core.Noise{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: dp.Params{Epsilon: 0.9, Delta: 1e-4}}
	rel, err := core.ReleaseCount(fx.tree, level, core.ModelIndividual, n, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	l := countLabel(t, rel)
	audit(t, "individual count", fx, l, countShift) // protects one association
	l.model = core.ModelCells
	worst, group, _ := worstLoss(l, fx.nbs[levelModel{level, core.ModelCells}], countShift)
	if worst < 0.5 {
		t.Errorf("individual-DP noise (σ=%.3g) against removing %s: δ=%.3g at ε=%v, want a leak of at least 0.5", l.sigma, group, worst, l.eps)
	}
	t.Logf("individual-DP noise (σ=%.3g) against removing %s: δ=%.3g at ε=%v, label δ=%v", l.sigma, group, worst, l.eps, l.delta)
}

// TestExternalGaussianWithinBudget audits the externally calibrated
// Gaussian path on the skewed dataset: composed-rdp σ from the RDP
// accountant, each release labelled with the ε that σ implies at its
// sensitivity. Every release is within its label and tight at it.
func TestExternalGaussianWithinBudget(t *testing.T) {
	t.Parallel()
	fx := newFixture(t, skewed(t), 3)
	p, err := release.New(dp.Params{Epsilon: 0.8, Delta: 1e-5}, release.WithRounds(3),
		release.WithMode(release.ModeComposedRDP), release.WithCellHistograms(true))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := p.RunFromEdges(fx.source())
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, "composed-rdp", fx.tree, rel.Tree())
	for _, c := range rel.Counts.Levels {
		l := countLabel(t, c)
		if l.calib != "rdp" {
			t.Fatalf("level %d: calibration %q, want rdp", l.level, l.calib)
		}
		audit(t, "composed-rdp count", fx, l, countShift)
	}
	for _, c := range rel.Cells {
		audit(t, "composed-rdp cells", fx, cellsLabel(t, c), cellShift)
	}
}
