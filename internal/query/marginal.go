package query

import (
	"fmt"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/hierarchy"
)

// MarginalCounts returns the per-side-group association counts implied by
// a noisy cell release: row sums for the left side, column sums for the
// right side. Because a level's cells partition the records by (left
// group, right group), the exact row sum equals the left group's incident
// edge count, so the released marginal is an εg-group-DP estimate of
// "how many associations does this author group account for?" — the
// paper's motivating sensitive aggregate.
func MarginalCounts(c core.CellRelease, side bipartite.Side) ([]float64, error) {
	return MarginalCountsInto(nil, c, side)
}

// MarginalCountsInto is MarginalCounts writing into dst, reusing dst's
// capacity, so a caller that passes its retained scratch every release
// allocates nothing in steady state. dst may be nil or short (it is
// grown as needed); the returned slice is the resized dst.
func MarginalCountsInto(dst []float64, c core.CellRelease, side bipartite.Side) ([]float64, error) {
	if !side.Valid() {
		return nil, fmt.Errorf("query: invalid side %v", side)
	}
	k := c.SideGroups
	if k <= 0 || len(c.Counts) != k*k {
		return nil, fmt.Errorf("query: malformed cell release (%d counts for k=%d)", len(c.Counts), k)
	}
	if cap(dst) < k {
		dst = make([]float64, k)
	} else {
		dst = dst[:k]
	}
	clear(dst)
	// One sequential pass over the matrix, row-major: row sums in one
	// accumulator per row, column sums by adding each row into dst — the
	// fold core.ReleaseMarginal runs window by window, so the two
	// marginals agree bit for bit.
	core.FoldMarginal(dst, c.Counts, 0, k, side)
	return dst, nil
}

// TopKGroups returns the indices of the k largest released marginals on a
// side, descending — the noisy "heaviest author groups" list a data user
// would compute.
func TopKGroups(c core.CellRelease, side bipartite.Side, k int) ([]int, error) {
	var s TopKScratch
	return TopKGroupsInto(&s, c, side, k)
}

// TopKScratch holds the reusable buffers of TopKGroupsInto and
// TopKOfMarginalsInto: the marginal vector (TopKGroupsInto's only) and
// the index permutation they rank. A serving session retains one scratch
// for its lifetime so steady-state top-k queries allocate nothing. The
// zero value is ready to use.
type TopKScratch struct {
	marginals []float64
	sorter    topkSorter
}

// TopKGroupsInto is TopKGroups ranking through the caller's scratch. The
// returned slice aliases the scratch and is valid until its next use;
// copy to retain.
func TopKGroupsInto(s *TopKScratch, c core.CellRelease, side bipartite.Side, k int) ([]int, error) {
	marginals, err := MarginalCountsInto(s.marginals, c, side)
	if err != nil {
		return nil, err
	}
	s.marginals = marginals
	return TopKOfMarginalsInto(s, marginals, k)
}

// TopKOfMarginalsInto ranks released marginals — the ranking of
// TopKGroupsInto, for a caller that released the marginal itself
// (core.ReleaseMarginal) rather than the cell histogram. It returns the
// indices of the k largest, descending, ties in ascending index order;
// the slice aliases the scratch and is valid until its next use.
func TopKOfMarginalsInto(s *TopKScratch, marginals []float64, k int) ([]int, error) {
	if k <= 0 || k > len(marginals) {
		return nil, fmt.Errorf("query: k=%d outside [1,%d]", k, len(marginals))
	}
	if cap(s.sorter.idx) < len(marginals) {
		s.sorter.idx = make([]int, len(marginals))
	} else {
		s.sorter.idx = s.sorter.idx[:len(marginals)]
	}
	for i := range s.sorter.idx {
		s.sorter.idx[i] = i
	}
	s.sorter.vals = marginals
	sort.Sort(&s.sorter)
	return s.sorter.idx[:k], nil
}

// topkSorter orders an index permutation by descending marginal with the
// index itself as the tie-break. The total order makes the (unstable)
// sort.Sort produce exactly what sort.SliceStable over an ascending
// initial permutation produced — equal values stay in ascending index
// order — while a concrete Interface on a retained pointer keeps the
// sort allocation-free.
type topkSorter struct {
	idx  []int
	vals []float64
}

func (t *topkSorter) Len() int      { return len(t.idx) }
func (t *topkSorter) Swap(i, j int) { t.idx[i], t.idx[j] = t.idx[j], t.idx[i] }
func (t *topkSorter) Less(i, j int) bool {
	a, b := t.idx[i], t.idx[j]
	if t.vals[a] != t.vals[b] {
		return t.vals[a] > t.vals[b]
	}
	return a < b
}

// TopKPrecision measures how many of the released top-k groups are truly
// in the exact top-k (set precision in [0, 1]): the utility of heavy-
// hitter identification at a privilege tier.
func TopKPrecision(t *hierarchy.Tree, c core.CellRelease, side bipartite.Side, k int) (float64, error) {
	if t == nil {
		return 0, ErrNilTree
	}
	released, err := TopKGroups(c, side, k)
	if err != nil {
		return 0, err
	}
	exact, err := t.SideGroupIncidentEdges(c.Level, side)
	if err != nil {
		return 0, err
	}
	idx := make([]int, len(exact))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return exact[idx[a]] > exact[idx[b]] })
	truth := make(map[int]bool, k)
	for _, i := range idx[:k] {
		truth[i] = true
	}
	hits := 0
	for _, i := range released {
		if truth[i] {
			hits++
		}
	}
	return float64(hits) / float64(k), nil
}
