// Package core implements the paper's primary contribution: g-group
// differential privacy over multi-level association graphs.
//
// Definitions (paper §II):
//
//   - Group-level adjacent datasets (Def. 3): D1 = D2 ∪ Gi for some group
//     Gi of a fixed partition G of the record universe.
//   - g-group differential privacy (Def. 4): a randomized algorithm A is
//     εg-group-DP if Pr[A(D1)=S] ≤ e^{εg}·Pr[A(D2)=S] for all group-level
//     adjacent D1, D2.
//
// For a counting query, removing an entire group changes the answer by at
// most the largest group's record count, so calibrating a Gaussian (or
// Laplace) mechanism to sensitivity Δℓ = max group size at level ℓ yields
// εg-group DP at that level. This package computes those sensitivities
// from a hierarchy.Tree under two group semantics (cells and node groups,
// see GroupModel), calibrates the paper's Phase-2 Gaussian noise, and
// produces single-level and multi-level releases.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/rng"
)

// GroupModel selects the group-adjacency semantics.
type GroupModel int

// Group models.
//
// ModelCells (primary): groups are the level's cells — crossings of left
// and right node ranges; removing a group removes exactly its records.
//
// ModelNodeGroups (ablation A4): groups are the level's single-side node
// ranges; removing a group removes every association incident to its
// nodes.
//
// ModelIndividual: classical record-level DP (sensitivity 1) regardless of
// level; the paper's "level 0 is the individual user level".
const (
	ModelCells GroupModel = iota + 1
	ModelNodeGroups
	ModelIndividual
)

// String implements fmt.Stringer.
func (m GroupModel) String() string {
	switch m {
	case ModelCells:
		return "cells"
	case ModelNodeGroups:
		return "node-groups"
	case ModelIndividual:
		return "individual"
	default:
		return fmt.Sprintf("GroupModel(%d)", int(m))
	}
}

// Valid reports whether m is a known model.
func (m GroupModel) Valid() bool {
	return m == ModelCells || m == ModelNodeGroups || m == ModelIndividual
}

// Calibration selects how the Phase-2 Gaussian noise scale is derived
// from (εg, δ) and the sensitivity.
type Calibration int

// Calibrations. CalibrationClassical is the Dwork–Roth bound the paper
// cites (requires εg < 1, exactly the range swept in Figure 1);
// CalibrationAnalytic is the exact Balle–Wang bound, valid for every
// εg > 0 and strictly tighter (ablation A2).
const (
	CalibrationClassical Calibration = iota + 1
	CalibrationAnalytic
)

// String implements fmt.Stringer.
func (c Calibration) String() string {
	switch c {
	case CalibrationClassical:
		return "classical"
	case CalibrationAnalytic:
		return "analytic"
	default:
		return fmt.Sprintf("Calibration(%d)", int(c))
	}
}

// Valid reports whether c is a known calibration.
func (c Calibration) Valid() bool {
	return c == CalibrationClassical || c == CalibrationAnalytic
}

// Errors returned by this package.
var (
	ErrNilTree  = errors.New("core: nil hierarchy tree")
	ErrBadModel = errors.New("core: unknown group model")
	ErrBadCalib = errors.New("core: unknown calibration")
)

// GroupUniverse describes the group partition at one level under one
// model — the G that Definitions 3 and 4 quantify over.
type GroupUniverse struct {
	Level     int        `json:"level"`
	Model     GroupModel `json:"-"`
	ModelName string     `json:"model"`
	// NumGroups is the number of groups in the partition.
	NumGroups int `json:"num_groups"`
	// MaxGroupRecords is the largest group's record count — the
	// count-query sensitivity at this level.
	MaxGroupRecords int64 `json:"max_group_records"`
	// TotalRecords is the number of records in the dataset.
	TotalRecords int64 `json:"total_records"`
}

// Universe computes the group universe of a level under a model.
func Universe(t *hierarchy.Tree, level int, model GroupModel) (GroupUniverse, error) {
	if t == nil {
		return GroupUniverse{}, ErrNilTree
	}
	if !model.Valid() {
		return GroupUniverse{}, fmt.Errorf("%w: %d", ErrBadModel, int(model))
	}
	u := GroupUniverse{
		Level:        level,
		Model:        model,
		ModelName:    model.String(),
		TotalRecords: t.NumEdges(),
	}
	switch model {
	case ModelCells:
		n, err := t.NumCells(level)
		if err != nil {
			return GroupUniverse{}, err
		}
		max, err := t.MaxCellEdges(level)
		if err != nil {
			return GroupUniverse{}, err
		}
		u.NumGroups, u.MaxGroupRecords = n, max
	case ModelNodeGroups:
		n, err := t.NumSideGroups(level)
		if err != nil {
			return GroupUniverse{}, err
		}
		max, err := t.MaxSideGroupIncidentEdges(level)
		if err != nil {
			return GroupUniverse{}, err
		}
		u.NumGroups, u.MaxGroupRecords = 2*n, max
	case ModelIndividual:
		// Validate the level exists, then report record-level granularity.
		if _, err := t.DepthOfLevel(level); err != nil {
			return GroupUniverse{}, err
		}
		u.NumGroups = int(t.NumEdges())
		u.MaxGroupRecords = 1
		if u.TotalRecords == 0 {
			u.MaxGroupRecords = 0
		}
	}
	return u, nil
}

// Sensitivity returns the sensitivity of the association-count query at a
// level under a model: the largest group's record count. Removing a group
// changes the count by exactly that many records (cells), at most that
// many (node groups), or one record (individual). For a scalar count the
// L1 and L2 sensitivities coincide.
func Sensitivity(t *hierarchy.Tree, level int, model GroupModel) (int64, error) {
	u, err := Universe(t, level, model)
	if err != nil {
		return 0, err
	}
	return u.MaxGroupRecords, nil
}

// Sigma calibrates the Phase-2 Gaussian noise scale for the given budget
// and sensitivity. A zero sensitivity (empty dataset) needs no noise.
func Sigma(p dp.Params, sensitivity int64, calib Calibration) (float64, error) {
	if !calib.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrBadCalib, int(calib))
	}
	if sensitivity < 0 {
		return 0, fmt.Errorf("core: negative sensitivity %d", sensitivity)
	}
	if sensitivity == 0 {
		return 0, nil
	}
	switch calib {
	case CalibrationAnalytic:
		return dp.AnalyticGaussianSigma(p, float64(sensitivity))
	default:
		return dp.ClassicalGaussianSigma(p, float64(sensitivity))
	}
}

// LevelRelease is the εg-group-DP answer to the association-count query
// at one information level — one point of the paper's Figure 1.
type LevelRelease struct {
	// Level is the protected group level (the i of I9,i).
	Level int `json:"level"`
	// Model and Calibration record how the noise was derived.
	Model       GroupModel  `json:"-"`
	Calibration Calibration `json:"-"`
	ModelName   string      `json:"model"`
	CalibName   string      `json:"calibration"`
	// MechName records the noise mechanism.
	MechName string `json:"mechanism,omitempty"`
	// Params is the (εg, δ) budget this release consumed.
	Params dp.Params `json:"-"`
	// Epsilon and Delta mirror Params for serialization.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// Sensitivity is Δℓ, the largest group at the level.
	Sensitivity int64 `json:"sensitivity"`
	// Sigma is the noise's standard deviation: the Gaussian σ, b√2 under
	// Laplace(b).
	Sigma float64 `json:"sigma"`
	// TrueCount is the exact answer. It is retained for evaluation (the
	// curator knows it); publishers serialize releases with OmitTrue.
	TrueCount int64 `json:"true_count,omitempty"`
	// NoisyCount is the released answer.
	NoisyCount float64 `json:"noisy_count"`
	// RER is the relative error rate |P−T|/T, the paper's metric. Like
	// TrueCount it is evaluation-only (it reveals the exact count given
	// the noisy one) and absent from the published form.
	RER float64 `json:"rer,omitempty"`
}

// OmitTrue returns the release with the exact count and error rate
// removed — the form handed to data users.
func (r LevelRelease) OmitTrue() LevelRelease {
	r.TrueCount, r.RER = 0, 0
	return r
}

// ReleaseCount answers the association-count query at one level with
// εg-group DP under the group model, perturbed as n says. An external σ
// is honoured only by Gaussian noise (ErrBadMechanism otherwise).
func ReleaseCount(t *hierarchy.Tree, level int, model GroupModel, n Noise, src *rng.Source) (LevelRelease, error) {
	s, err := n.resolve(t, level, model, src, true)
	if err != nil {
		return LevelRelease{}, err
	}
	trueCount := t.NumEdges()
	rel := LevelRelease{
		Level: level, Model: model, Calibration: s.calib,
		ModelName: model.String(), CalibName: s.calibName, MechName: n.Mech.String(),
		Params: n.Budget, Epsilon: n.Budget.Epsilon, Delta: s.delta,
		Sensitivity: s.sens, Sigma: s.sigma,
		TrueCount: trueCount, NoisyCount: float64(trueCount) + s.draw(src),
	}
	if trueCount > 0 {
		rel.RER = math.Abs(rel.NoisyCount-float64(trueCount)) / float64(trueCount)
	}
	return rel, nil
}

// ExpectedRER returns the expected relative error rate E|noise|/T of the
// level release ReleaseCount would make, in closed form: σ·√(2/π) for
// Gaussian noise, b = Δℓ/ε for Laplace, 2α/(1−α²) for the two-sided
// geometric. Used for forecasting and for cross-checking measured
// curves.
func ExpectedRER(t *hierarchy.Tree, level int, model GroupModel, n Noise) (float64, error) {
	s, err := n.resolve(t, level, model, nil, false)
	if err != nil {
		return 0, err
	}
	total := t.NumEdges()
	if total == 0 {
		return 0, nil
	}
	return s.expAbs / float64(total), nil
}

// CellRelease is the εg-group-DP release of a level's full cell histogram
// — the "noise injected into the subgraphs induced by each group level"
// of the paper's Phase 2.
type CellRelease struct {
	Level       int         `json:"level"`
	Model       GroupModel  `json:"-"`
	Calibration Calibration `json:"-"`
	// ModelName and CalibName serialize the provenance the enum fields
	// above cannot (they are json:"-"), mirroring LevelRelease; published
	// cell histograms carry how their noise was derived.
	ModelName   string    `json:"model"`
	CalibName   string    `json:"calibration"`
	Params      dp.Params `json:"-"`
	Epsilon     float64   `json:"epsilon"`
	Delta       float64   `json:"delta"`
	Sensitivity int64     `json:"sensitivity"`
	Sigma       float64   `json:"sigma"`
	// Counts holds the noisy per-cell record counts, row-major over the
	// (k × k) cell grid of the level.
	Counts []float64 `json:"counts"`
	// SideGroups is k, the number of node groups per side.
	SideGroups int `json:"side_groups"`
	// MechName names the noise mechanism when it is not the default
	// Gaussian ("laplace", "geometric"); empty means Gaussian, keeping
	// Gaussian artifacts byte-stable across mechanism additions.
	MechName string `json:"mechanism,omitempty"`
}

// ReleaseCells releases the noisy per-cell histogram of a level into dst,
// perturbed as n says. Every released cell is rounded to the nearest
// integer, ties to even, and is never −0: a count released as an integer
// carries no low-order noise bits (Mironov, CCS 2012), and rounding is
// post-processing, so σ, the guarantee and the draw stream are the
// unrounded release's. Geometric cells are integers already.
//
// Under cell adjacency, removing one group Gi changes only coordinate i of
// the histogram, by |Gi| records, so the histogram's L1 and L2
// sensitivities both equal the count query's: Δℓ = max cell size.
// Per-coordinate noise at that scale therefore gives εg-group DP for the
// whole histogram — (εg, δ) under Gaussian noise, δ = 0 under Laplace or
// geometric.
//
// dst.Counts' capacity is reused — the release engine's hot path: a
// caller looping releases (experiment trials, repeated queries at one
// level) passes the same dst every iteration and the per-release
// allocations drop to zero.
//
// The noise is filled in noiseChunk-sized windows, sharded across
// workers goroutines. Each chunk draws from its own stream derived by
// index from one fork point (rng.Source.Fork), so the released
// histogram is bit-identical for EVERY workers value and every
// mechanism — parallelism is purely a wall-clock knob, never a replay
// change; workers < 2 (or a release smaller than two chunks) runs on the
// calling goroutine.
func ReleaseCells(dst *CellRelease, t *hierarchy.Tree, level int, n Noise, src *rng.Source, workers int) error {
	s, err := n.resolve(t, level, ModelCells, src, true)
	if err != nil {
		return err
	}
	counts, err := t.LevelCellCountsView(level)
	if err != nil {
		return err
	}
	k, err := t.NumSideGroups(level)
	if err != nil {
		return err
	}
	counts32, _ := t.LevelCellCounts32View(level)
	buf := noisyCells(dst.Counts, counts, counts32, n.Mech, s.param, src, workers)
	*dst = CellRelease{
		Level: level, Model: ModelCells, Calibration: s.calib,
		ModelName: ModelCells.String(), CalibName: s.calibName,
		Params: n.Budget, Epsilon: n.Budget.Epsilon, Delta: s.delta,
		Sensitivity: s.sens, Sigma: s.sigma,
		Counts: buf, SideGroups: k, MechName: s.cellMechName,
	}
	return nil
}

// noiseChunk is the chunk grid of the noise pass: a multiple of
// rng.ZigBlock sized so one chunk's noise window and its counts stay
// L1/L2-resident while the add runs (without chunking, a 4^9-cell
// release streams the 2 MB histogram out of cache during the fill and
// drags it — plus the count matrix — back through memory for the add).
// Each chunk draws from its own fork-derived stream, which is also the
// unit the parallel release shards across cores: the grid is a pure
// function of the histogram length, so the released values cannot
// depend on the worker count.
const noiseChunk = 16 * rng.ZigBlock

// noiseChunkCount returns the number of chunks the grid assigns to an
// n-cell noise pass. A final fragment shorter than one ziggurat block
// is absorbed into the last chunk (a sub-block fill would run the
// scalar sampler path; absorbing keeps every chunk on the blocked
// path), so the last chunk's length is in [noiseChunk,
// noiseChunk+rng.ZigBlock) — or all of n when only one chunk fits.
func noiseChunkCount(n int) int {
	full, rem := n/noiseChunk, n%noiseChunk
	switch {
	case full == 0:
		return 1
	case rem >= rng.ZigBlock:
		return full + 1
	default:
		return full
	}
}

// growCells returns buf resized to n cells, reallocating only when its
// capacity is short.
func growCells(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// noisyCells fills buf (grown if its capacity is short) with counts plus
// mech's noise at its sampler parameter (σ, the Laplace b, the geometric
// α), rounded to integers: the histogram is cut into noiseChunk-sized
// windows, each drawing its noise from the chunk-indexed child of one
// fork point on src (rng.Fork) with the counts add and the rounding
// fused into the fill window while it is cache-resident. When counts32
// is non-nil (the level's counts all fit int32 —
// hierarchy.Tree.LevelCellCounts32View) and the noise is Gaussian with σ
// below maxFastRoundSigma, the add pass reads 4-byte counts, halving its
// memory traffic, and rounds with roundFast; otherwise it reads the
// int64 counts and rounds with roundCell. workers > 1 shards the chunks
// across goroutines; because every chunk's stream depends only on
// (fork point, chunk index), the result is bit-identical for every
// worker count. A zero parameter (empty dataset) copies the counts
// unchanged and draws nothing.
func noisyCells(buf []float64, counts []int64, counts32 []int32, mech NoiseMechanism, param float64, src *rng.Source, workers int) []float64 {
	buf = growCells(buf, len(counts))
	if param <= 0 {
		for i, c := range counts {
			buf[i] = float64(c)
		}
		return buf
	}
	if mech != MechGaussian || param >= maxFastRoundSigma {
		counts32 = nil // the shift trick's range no longer covers count + noise
	}
	fork := src.Fork()
	chunks := noiseChunkCount(len(buf))
	if workers > chunks {
		workers = chunks
	}
	if workers < 2 {
		var cs rng.Source
		for c := 0; c < chunks; c++ {
			fork.StreamTo(&cs, uint64(c))
			noisyChunk(buf, counts, counts32, mech, param, &cs, c, chunks)
		}
		return buf
	}
	noisyCellsParallel(buf, counts, counts32, mech, param, fork, chunks, workers)
	return buf
}

// noisyCellsParallel is noisyCells' multi-worker tail, kept out of
// noisyCells so the goroutine closure does not force the single-worker
// path's locals to the heap (the serving layer's steady-state queries
// are allocation-free through workers == 1).
func noisyCellsParallel(buf []float64, counts []int64, counts32 []int32, mech NoiseMechanism, param float64, fork rng.Fork, chunks, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cs rng.Source
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				fork.StreamTo(&cs, uint64(c))
				noisyChunk(buf, counts, counts32, mech, param, &cs, c, chunks)
			}
		}()
	}
	wg.Wait()
}

// Rounding the Gaussian cells: roundFast is exact only for |x| < 2^51,
// and it has no branch, so noisyCells checks that range once per release
// instead of per cell. The ziggurat's largest |variate| is its tail
// sampler's r − ln(u)/r with r = 3.852… and u ≥ 2^-54 (rng.OpenFloat64):
// below 14 (rng's TestNormalsSigmaBelow14 pins it), so σ <
// maxFastRoundSigma = 2^47 keeps |noise| < 14·2^47, and an int32 count on
// top still leaves |count + noise| < 2^51. The pure-ε samplers have no
// such bound at any scale this guard would admit — a Laplace variate
// reaches ln(2^53)·b ≈ 36.7·b, a geometric one MaxInt64/2 — so their
// chunks always round with roundCell.
const (
	roundShift        = 0x1.8p52
	maxFastRoundSigma = 1 << 47
)

// 14·maxFastRoundSigma + MaxInt32 < 2^51, or this constant overflows
// uint64 and the package does not compile.
const _ = uint64(1<<51 - 1 - (14*maxFastRoundSigma + math.MaxInt32))

// roundFast rounds x to the nearest integer, ties to even, for
// |x| < 2^51: adding roundShift = 1.5·2^52 lands the sum in
// [2^52, 2^53), where adjacent floats are 1 apart, so the add itself
// rounds (roundShift is even, so ties go to even), and subtracting
// roundShift back is exact. A zero result is +0, never −0.
func roundFast(x float64) float64 {
	return x + roundShift - roundShift
}

// roundCell rounds a released cell to the nearest integer, ties to even,
// for any magnitude, turning the −0 math.RoundToEven returns for
// x ∈ [−0.5, 0] into +0 (encoding/json would write it as -0).
func roundCell(x float64) float64 {
	if r := math.RoundToEven(x); r != 0 {
		return r
	}
	return 0
}

// noisyChunk fills chunk c of the grid: the mechanism's sampler on the
// chunk's own stream — one batched ziggurat fill for Gaussian noise, one
// draw per cell in index order for Laplace and geometric noise — then
// the counts add and the rounding over the still-resident window,
// through the narrow (int32) counts and roundFast when noisyCells passed
// them.
func noisyChunk(buf []float64, counts []int64, counts32 []int32, mech NoiseMechanism, param float64, cs *rng.Source, c, chunks int) {
	off := c * noiseChunk
	end := off + noiseChunk
	if c == chunks-1 {
		end = len(buf)
	}
	window := buf[off:end]
	switch mech {
	case MechLaplace:
		for i := range window {
			window[i] = cs.Laplace(param)
		}
	case MechGeometric:
		for i := range window {
			window[i] = float64(cs.TwoSidedGeometric(param))
		}
	default:
		cs.NormalsSigma(window, param)
	}
	if counts32 != nil {
		for i, v := range counts32[off:end] {
			window[i] = roundFast(window[i] + float64(v))
		}
	} else {
		for i, v := range counts[off:end] {
			window[i] = roundCell(window[i] + float64(v))
		}
	}
}

// SumCells returns the total association count implied by a cell release
// (the sum of its noisy cells).
func (c CellRelease) SumCells() float64 {
	var sum float64
	for _, v := range c.Counts {
		sum += v
	}
	return sum
}

// MultiLevelRelease is the full multi-level disclosure: one count release
// per requested information level.
type MultiLevelRelease struct {
	// MaxLevel is the hierarchy root level (9 in the paper's setup).
	MaxLevel int `json:"max_level"`
	// Levels holds the per-level releases, indexed by request order.
	Levels []LevelRelease `json:"levels"`
}

// ForLevel returns the release protecting the given group level.
func (m MultiLevelRelease) ForLevel(level int) (LevelRelease, bool) {
	for _, r := range m.Levels {
		if r.Level == level {
			return r, true
		}
	}
	return LevelRelease{}, false
}

// OmitTrue returns a copy with the exact counts and error rates removed,
// suitable for publication to data users.
func (m MultiLevelRelease) OmitTrue() MultiLevelRelease {
	out := MultiLevelRelease{MaxLevel: m.MaxLevel, Levels: make([]LevelRelease, len(m.Levels))}
	for i, r := range m.Levels {
		out.Levels[i] = r.OmitTrue()
	}
	return out
}
