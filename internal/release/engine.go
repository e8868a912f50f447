package release

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/rng"
)

// Engine is the Phase-2 tail of the pipeline as a reusable component: it
// answers count and cell-histogram releases against an already built
// hierarchy, holding the reusable histogram buffer that makes repeated
// releases allocation-free (core.ReleaseCells' dst-reuse contract).
//
// Pipeline.finish runs one Engine per artifact; a serving session
// (internal/serve) holds one Engine for its whole lifetime and answers
// every query through it, so steady-state serving never reallocates the
// cell buffer. An Engine is NOT safe for concurrent use — give each
// session or goroutine its own; Engines are cheap until the first Cells
// call sizes the buffer.
type Engine struct {
	model core.GroupModel
	calib core.Calibration
	mech  core.NoiseMechanism

	// cellMech is the cell-histogram noise mechanism. The default
	// Gaussian runs the chunked parallel fill; Laplace/geometric draw
	// serially per cell with δ = 0 and ignore the worker knob
	// (core.ReleaseCells). Zero means Gaussian.
	cellMech core.NoiseMechanism

	// workers shards each Gaussian cell release's noise pass across
	// goroutines; releases are bit-identical for every value, so it is
	// purely a latency knob. 0 and 1 both mean single-threaded.
	workers int

	// cells is the reusable histogram buffer. Cells and CellsSigma
	// overwrite it and return a pointer into it; the previous result is
	// invalid after the next call.
	cells core.CellRelease
}

// NewEngine validates the release configuration and returns an Engine.
func NewEngine(model core.GroupModel, calib core.Calibration, mech core.NoiseMechanism) (*Engine, error) {
	if !model.Valid() {
		return nil, fmt.Errorf("%w: model %d", ErrBadOption, int(model))
	}
	if !calib.Valid() {
		return nil, fmt.Errorf("%w: calibration %d", ErrBadOption, int(calib))
	}
	if !mech.Valid() {
		return nil, fmt.Errorf("%w: mechanism %d", ErrBadOption, int(mech))
	}
	return &Engine{model: model, calib: calib, mech: mech}, nil
}

// SetCellMechanism selects the cell-histogram noise mechanism. Gaussian
// (the default) keeps the chunked worker-sharded fill; Laplace and
// geometric switch Cells to the serial pure-ε path with δ = 0.
func (e *Engine) SetCellMechanism(m core.NoiseMechanism) error {
	if !m.Valid() {
		return fmt.Errorf("%w: cell mechanism %d", ErrBadOption, int(m))
	}
	e.cellMech = m
	return nil
}

// CellMechanism returns the cell-histogram noise mechanism (Gaussian
// when unset).
func (e *Engine) CellMechanism() core.NoiseMechanism {
	if e.cellMech == 0 {
		return core.MechGaussian
	}
	return e.cellMech
}

// SetWorkers sets the per-release noise-pass parallelism. Every cell
// release draws per-chunk forked streams regardless, so the released
// values are bit-identical across worker counts — n only changes how
// many cores one release occupies. Values below 1 select 1.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// Workers returns the per-release noise-pass parallelism (at least 1).
func (e *Engine) Workers() int {
	if e.workers < 1 {
		return 1
	}
	return e.workers
}

// Count answers the association-count query at one level, consuming the
// given budget.
func (e *Engine) Count(t *hierarchy.Tree, level int, budget dp.Params, src *rng.Source) (core.LevelRelease, error) {
	return core.ReleaseCount(t, level, e.model, core.Noise{Mech: e.mech, Calib: e.calib, Budget: budget}, src)
}

// CountSigma is Count with an externally calibrated Gaussian scale (the
// RDP-accounted path); advertised records the per-release budget implied
// by sigma. It is Gaussian-only — pure-ε mechanisms have no external σ
// accounting — and fails with core.ErrBadMechanism on any other engine.
func (e *Engine) CountSigma(t *hierarchy.Tree, level int, sigma float64, advertised dp.Params, src *rng.Source) (core.LevelRelease, error) {
	return core.ReleaseCount(t, level, e.model, core.Noise{Mech: e.mech, External: true, Sigma: sigma, Budget: advertised}, src)
}

// Cells releases a level's noisy cell histogram into the Engine's
// reusable buffer and returns a view of it. The result is valid until the
// next Cells or CellsSigma call; callers that retain it across calls must
// clone (CloneCellRelease).
func (e *Engine) Cells(t *hierarchy.Tree, level int, budget dp.Params, src *rng.Source) (*core.CellRelease, error) {
	return e.releaseCells(t, level, core.Noise{Mech: e.CellMechanism(), Calib: e.calib, Budget: budget}, src)
}

// CellsSigma is Cells with an externally calibrated Gaussian scale;
// Gaussian-only like CountSigma.
func (e *Engine) CellsSigma(t *hierarchy.Tree, level int, sigma float64, advertised dp.Params, src *rng.Source) (*core.CellRelease, error) {
	return e.releaseCells(t, level, core.Noise{Mech: e.CellMechanism(), External: true, Sigma: sigma, Budget: advertised}, src)
}

// releaseCells runs one cell release into the reusable buffer.
func (e *Engine) releaseCells(t *hierarchy.Tree, level int, n core.Noise, src *rng.Source) (*core.CellRelease, error) {
	if err := core.ReleaseCells(&e.cells, t, level, n, src, e.Workers()); err != nil {
		return nil, err
	}
	return &e.cells, nil
}

// LoadCells copies src into the Engine's reusable buffer and returns
// the buffer view — how a serving-layer cache hit rehydrates a retained
// histogram while preserving the engine's buffer-reuse contract (the
// result is valid until the next Cells/CellsSigma/LoadCells call, and
// repeated queries keep writing one backing array).
func (e *Engine) LoadCells(src *core.CellRelease) *core.CellRelease {
	counts := e.cells.Counts
	e.cells = *src
	e.cells.Counts = append(counts[:0], src.Counts...)
	return &e.cells
}

// CloneCellRelease deep-copies a cell release so it survives the Engine
// buffer's next reuse — what the artifact assembly does when it retains
// every level's histogram.
func CloneCellRelease(c core.CellRelease) core.CellRelease {
	c.Counts = append([]float64(nil), c.Counts...)
	return c
}
