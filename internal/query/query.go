// Package query evaluates counting queries against both the exact graph
// hierarchy and the noisy releases, quantifying the utility a data user at
// each privilege tier actually gets.
//
// Beyond the paper's single "how many associations are there?" query, the
// package supports rectangle (range) queries over a level's cell grid —
// "how many associations exist between these author groups and these
// paper groups?" — which is what the released subgraph histograms are
// for. Workload generation and error evaluation feed the experiment
// harness.
package query

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// Rect is a rectangle over a level's cell grid: side-group index ranges
// [I0, I1) × [J0, J1).
type Rect struct {
	Level int `json:"level"`
	I0    int `json:"i0"`
	I1    int `json:"i1"`
	J0    int `json:"j0"`
	J1    int `json:"j1"`
}

// Errors returned by this package.
var (
	ErrBadRect       = errors.New("query: invalid rectangle")
	ErrLevelMismatch = errors.New("query: release level does not match rectangle level")
	ErrNilTree       = errors.New("query: nil tree")
)

// validate checks rect against a k×k grid.
func (r Rect) validate(k int) error {
	if r.I0 < 0 || r.J0 < 0 || r.I1 > k || r.J1 > k || r.I0 >= r.I1 || r.J0 >= r.J1 {
		return fmt.Errorf("%w: [%d,%d)x[%d,%d) on %dx%d grid", ErrBadRect, r.I0, r.I1, r.J0, r.J1, k, k)
	}
	return nil
}

// ExactRect answers the rectangle query from the exact hierarchy.
func ExactRect(t *hierarchy.Tree, r Rect) (int64, error) {
	if t == nil {
		return 0, ErrNilTree
	}
	k, err := t.NumSideGroups(r.Level)
	if err != nil {
		return 0, err
	}
	if err := r.validate(k); err != nil {
		return 0, err
	}
	counts, err := t.LevelCellCountsView(r.Level)
	if err != nil {
		return 0, err
	}
	var sum int64
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			sum += counts[i*k+j]
		}
	}
	return sum, nil
}

// ReleasedRect answers the rectangle query from a noisy cell release.
func ReleasedRect(c core.CellRelease, r Rect) (float64, error) {
	if c.Level != r.Level {
		return 0, fmt.Errorf("%w: release level %d, rect level %d", ErrLevelMismatch, c.Level, r.Level)
	}
	k := c.SideGroups
	if err := r.validate(k); err != nil {
		return 0, err
	}
	var sum float64
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			sum += c.Counts[i*k+j]
		}
	}
	return sum, nil
}

// RandomRects generates n random rectangles over the level's grid for
// workload evaluation.
func RandomRects(src *rng.Source, t *hierarchy.Tree, level, n int) ([]Rect, error) {
	if t == nil {
		return nil, ErrNilTree
	}
	if src == nil {
		return nil, errors.New("query: nil rng source")
	}
	if n < 0 {
		return nil, fmt.Errorf("query: negative workload size %d", n)
	}
	k, err := t.NumSideGroups(level)
	if err != nil {
		return nil, err
	}
	out := make([]Rect, 0, n)
	for len(out) < n {
		i0 := src.Intn(k)
		i1 := i0 + 1 + src.Intn(k-i0)
		j0 := src.Intn(k)
		j1 := j0 + 1 + src.Intn(k-j0)
		out = append(out, Rect{Level: level, I0: i0, I1: i1, J0: j0, J1: j1})
	}
	return out, nil
}

// Result is the error profile of a workload against one release.
type Result struct {
	Level int `json:"level"`
	// NumQueries is the workload size.
	NumQueries int `json:"num_queries"`
	// AbsErr summarizes |released − exact| across queries.
	AbsErr metrics.Summary `json:"abs_err"`
	// RER summarizes the relative error across queries with non-zero
	// exact answers; NumZeroTruth counts the skipped ones.
	RER          metrics.Summary `json:"rer"`
	NumZeroTruth int             `json:"num_zero_truth"`
}

// Evaluate runs the workload against the exact tree and a noisy cell
// release, returning the error profile.
func Evaluate(t *hierarchy.Tree, c core.CellRelease, workload []Rect) (Result, error) {
	if len(workload) == 0 {
		return Result{}, errors.New("query: empty workload")
	}
	absErrs := make([]float64, 0, len(workload))
	rers := make([]float64, 0, len(workload))
	zero := 0
	for qi, r := range workload {
		exact, err := ExactRect(t, r)
		if err != nil {
			return Result{}, fmt.Errorf("query %d: %w", qi, err)
		}
		released, err := ReleasedRect(c, r)
		if err != nil {
			return Result{}, fmt.Errorf("query %d: %w", qi, err)
		}
		absErrs = append(absErrs, metrics.AbsError(released, float64(exact)))
		if exact == 0 {
			zero++
			continue
		}
		rers = append(rers, metrics.RER(released, float64(exact)))
	}
	out := Result{Level: c.Level, NumQueries: len(workload), NumZeroTruth: zero}
	var err error
	if out.AbsErr, err = metrics.Summarize(absErrs); err != nil {
		return Result{}, err
	}
	if len(rers) > 0 {
		if out.RER, err = metrics.Summarize(rers); err != nil {
			return Result{}, err
		}
	}
	return out, nil
}
