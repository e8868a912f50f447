package release

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/rng"
)

// Engine is the Phase-2 tail of the pipeline as a reusable component: it
// answers count, cell-histogram and marginal releases against an already
// built hierarchy, holding the reusable buffers that make repeated
// releases allocation-free (the dst-reuse contract of core.ReleaseCells
// and core.ReleaseMarginal).
//
// A serving session (internal/serve) holds one Engine for its whole
// lifetime and answers every query through it. A marginal or top-k
// query keeps only one noise-chunk window and the k marginal sums,
// never the level's k² cells; a level view keeps the cell histogram it
// returns. Every release runs on the calling goroutine; a histogram's
// noise pass is sharded only by Pipeline.WithWorkers.
// Pipeline.finish needs no Engine: it walks its plan through
// core.ReleaseCount and core.ReleaseCells, one release per op. An Engine
// is NOT safe for concurrent use — give each session or goroutine its
// own; Engines are cheap until the first release sizes a buffer.
type Engine struct {
	model core.GroupModel
	calib core.Calibration
	// mech perturbs every count and cell release.
	mech core.NoiseMechanism

	// cells is the reusable histogram buffer. Cells and LoadCells
	// overwrite it and return a pointer into it; the previous result is
	// invalid after the next call.
	cells core.CellRelease
	// marginal is Marginal's reusable sums and noise window; the slice
	// Marginal returns is invalid after its next call.
	marginal core.MarginalRelease
}

// NewEngine validates the release configuration and returns an Engine
// whose counts and cells are both perturbed by mech.
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

// Count answers the association-count query at one level, consuming the
// given budget.
func (e *Engine) Count(t *hierarchy.Tree, level int, budget dp.Params, src *rng.Source) (core.LevelRelease, error) {
	return core.ReleaseCount(t, level, e.model, core.Noise{Mech: e.mech, Calib: e.calib, Budget: budget}, src)
}

// Cells releases a level's noisy cell histogram into the Engine's
// reusable buffer and returns a view of it. The result is valid until the
// next Cells or LoadCells call; callers that retain it across calls must
// clone (CloneCellRelease).
func (e *Engine) Cells(t *hierarchy.Tree, level int, budget dp.Params, src *rng.Source) (*core.CellRelease, error) {
	if err := core.ReleaseCells(&e.cells, t, level, core.Noise{Mech: e.mech, Calib: e.calib, Budget: budget}, src, 1); err != nil {
		return nil, err
	}
	return &e.cells, nil
}

// Marginal releases a level's per-side-group association counts — the
// row (left) or column (right) sums of the noisy cell histogram Cells
// would release from the same budget and src, bit for bit. It runs
// core.ReleaseMarginal, which never holds the histogram: the Engine
// keeps one noise-chunk window instead of the level's cells, and the
// last Cells result stays valid. The result is valid until the next
// Marginal call.
func (e *Engine) Marginal(t *hierarchy.Tree, level int, side bipartite.Side, budget dp.Params, src *rng.Source) ([]float64, error) {
	n := core.Noise{Mech: e.mech, Calib: e.calib, Budget: budget}
	if err := core.ReleaseMarginal(&e.marginal, t, level, side, n, src); err != nil {
		return nil, err
	}
	return e.marginal.Counts, nil
}

// LoadCells copies src into the Engine's reusable buffer and returns
// the buffer view — how a serving-layer cache hit rehydrates a retained
// histogram while preserving the engine's buffer-reuse contract (the
// result is valid until the next Cells/LoadCells call, and
// repeated queries keep writing one backing array).
func (e *Engine) LoadCells(src *core.CellRelease) *core.CellRelease {
	counts := e.cells.Counts
	e.cells = *src
	e.cells.Counts = append(counts[:0], src.Counts...)
	return &e.cells
}

// CloneCellRelease deep-copies a cell release so it survives the Engine
// buffer's next reuse — what a serving-layer cache does when it retains
// a level's histogram.
func CloneCellRelease(c core.CellRelease) core.CellRelease {
	c.Counts = append([]float64(nil), c.Counts...)
	return c
}
