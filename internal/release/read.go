package release

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/hierarchy"
)

// ErrBadArtifact reports a release JSON that fails validation.
var ErrBadArtifact = errors.New("release: invalid artifact")

// ReadJSON parses a release artifact previously produced by WriteJSON and
// validates its internal consistency, so data users can load published
// files defensively. The curator-side tree and audit trail are not part
// of the JSON and remain nil.
func ReadJSON(r io.Reader) (*Release, error) {
	dec := json.NewDecoder(r)
	var rel Release
	if err := dec.Decode(&rel); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrBadArtifact, err)
	}
	if err := validateArtifact(&rel); err != nil {
		return nil, err
	}
	return &rel, nil
}

// validateArtifact is the data-user trust boundary: whatever it accepts,
// the consumer-side queries (ViewFor, the query package's marginals and
// top-k) can run on without a size they did not read from the file.
func validateArtifact(rel *Release) error {
	if rel.Rounds < 1 || rel.Rounds > hierarchy.MaxRounds {
		return fmt.Errorf("%w: rounds %d outside [1,%d]", ErrBadArtifact, rel.Rounds, hierarchy.MaxRounds)
	}
	if !(rel.BudgetEpsilon > 0) {
		return fmt.Errorf("%w: budget epsilon %v", ErrBadArtifact, rel.BudgetEpsilon)
	}
	if len(rel.Counts.Levels) == 0 {
		return fmt.Errorf("%w: no level releases", ErrBadArtifact)
	}
	seen := make(map[int]bool, len(rel.Counts.Levels))
	for i, lr := range rel.Counts.Levels {
		if lr.Level < 0 || lr.Level > rel.Rounds {
			return fmt.Errorf("%w: level release %d has level %d outside [0,%d]",
				ErrBadArtifact, i, lr.Level, rel.Rounds)
		}
		if seen[lr.Level] {
			return fmt.Errorf("%w: duplicate release for level %d", ErrBadArtifact, lr.Level)
		}
		seen[lr.Level] = true
		if lr.Sensitivity < 0 {
			return fmt.Errorf("%w: level %d negative sensitivity", ErrBadArtifact, lr.Level)
		}
		if math.IsNaN(lr.NoisyCount) || math.IsInf(lr.NoisyCount, 0) {
			return fmt.Errorf("%w: level %d noisy count %v", ErrBadArtifact, lr.Level, lr.NoisyCount)
		}
		if !(lr.Epsilon > 0) {
			return fmt.Errorf("%w: level %d epsilon %v", ErrBadArtifact, lr.Level, lr.Epsilon)
		}
		if !finiteNonNegative(lr.Sigma) || !finiteNonNegative(lr.Delta) {
			return fmt.Errorf("%w: level %d sigma %v, delta %v", ErrBadArtifact, lr.Level, lr.Sigma, lr.Delta)
		}
	}
	cellSeen := make(map[int]bool, len(rel.Cells))
	for i, c := range rel.Cells {
		// The cap comes first: it keeps the square below from wrapping
		// (a side_groups of 2^32 squares to 0 and would match no counts).
		if c.SideGroups < 1 || c.SideGroups > 1<<rel.Rounds || len(c.Counts) != c.SideGroups*c.SideGroups {
			return fmt.Errorf("%w: cell release %d has %d counts for %d side groups (at most %d)",
				ErrBadArtifact, i, len(c.Counts), c.SideGroups, 1<<rel.Rounds)
		}
		if !seen[c.Level] {
			return fmt.Errorf("%w: cell release %d for level %d without a count release",
				ErrBadArtifact, i, c.Level)
		}
		if cellSeen[c.Level] {
			return fmt.Errorf("%w: duplicate cell release for level %d", ErrBadArtifact, c.Level)
		}
		cellSeen[c.Level] = true
		if !finiteNonNegative(c.Sigma) || !finiteNonNegative(c.Delta) {
			return fmt.Errorf("%w: cell release %d sigma %v, delta %v", ErrBadArtifact, i, c.Sigma, c.Delta)
		}
		for _, v := range c.Counts {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: cell release %d contains non-finite count", ErrBadArtifact, i)
			}
		}
	}
	return nil
}

// finiteNonNegative is what a published sigma or delta must be.
func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
