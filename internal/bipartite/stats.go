package bipartite

import (
	"fmt"
	"slices"
	"strings"
)

// Stats summarizes the shape of an association graph. The disclosure
// pipeline logs these to document each dataset, and the synthetic
// generator's tests compare them against DBLP's published shape.
type Stats struct {
	NumLeft  int   `json:"num_left"`
	NumRight int   `json:"num_right"`
	NumEdges int64 `json:"num_edges"`

	MeanLeftDegree  float64 `json:"mean_left_degree"`
	MeanRightDegree float64 `json:"mean_right_degree"`
	MaxLeftDegree   int64   `json:"max_left_degree"`
	MaxRightDegree  int64   `json:"max_right_degree"`

	// MedianLeftDegree and MedianRightDegree are medians over nodes that
	// exist on that side (isolated nodes count with degree zero).
	MedianLeftDegree  float64 `json:"median_left_degree"`
	MedianRightDegree float64 `json:"median_right_degree"`

	// GiniLeft and GiniRight measure degree concentration in [0,1];
	// heavy-tailed real datasets such as DBLP sit well above 0.4 on the
	// author side.
	GiniLeft  float64 `json:"gini_left"`
	GiniRight float64 `json:"gini_right"`

	Density float64 `json:"density"`
}

// ComputeStats scans the graph once per side and returns its summary.
func ComputeStats(g *Graph) Stats {
	return StatsFromDegrees(degreeSlice(g, Left), degreeSlice(g, Right))
}

// StatsFromDegrees computes the summary from per-node degree slices alone
// — everything Stats reports is a functional of the two degree sequences.
// The hierarchy build uses it to document a dataset it never holds as a
// Graph; ComputeStats delegates here, so the two agree bit for bit. The slices are read, not modified.
func StatsFromDegrees(leftDegrees, rightDegrees []int64) Stats {
	var edges int64
	for _, d := range leftDegrees {
		edges += d
	}
	s := Stats{
		NumLeft:  len(leftDegrees),
		NumRight: len(rightDegrees),
		NumEdges: edges,
	}
	if s.NumLeft > 0 {
		s.MeanLeftDegree = float64(s.NumEdges) / float64(s.NumLeft)
	}
	if s.NumRight > 0 {
		s.MeanRightDegree = float64(s.NumEdges) / float64(s.NumRight)
	}
	s.MaxLeftDegree, s.MedianLeftDegree, s.GiniLeft = summarizeDegrees(leftDegrees)
	s.MaxRightDegree, s.MedianRightDegree, s.GiniRight = summarizeDegrees(rightDegrees)
	if s.NumLeft > 0 && s.NumRight > 0 {
		s.Density = float64(s.NumEdges) / (float64(s.NumLeft) * float64(s.NumRight))
	}
	return s
}

// String renders the stats as a compact single-line summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "|L|=%d |R|=%d |E|=%d", s.NumLeft, s.NumRight, s.NumEdges)
	fmt.Fprintf(&b, " degL(mean=%.2f,med=%.1f,max=%d)", s.MeanLeftDegree, s.MedianLeftDegree, s.MaxLeftDegree)
	fmt.Fprintf(&b, " degR(mean=%.2f,med=%.1f,max=%d)", s.MeanRightDegree, s.MedianRightDegree, s.MaxRightDegree)
	fmt.Fprintf(&b, " gini(L=%.3f,R=%.3f)", s.GiniLeft, s.GiniRight)
	return b.String()
}

func degreeSlice(g *Graph, side Side) []int64 {
	n := g.NumSide(side)
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = g.Degree(side, int32(i))
	}
	return out
}

// histogramSlack bounds the counting histogram summarizeDegrees builds:
// past 16·n + 4096 buckets (a degree vector whose largest value dwarfs
// its length) clearing and walking the buckets costs more than sorting
// the n values.
const histogramSlack = 16

// summarizeDegrees returns the maximum (floored at 0), the median and the
// Gini coefficient of one side's degree vector. All three are functionals
// of the ascending order, which a counting histogram yields without a
// sort; ascendingDegrees then visits the values one node at a time in
// that order — the float operation sequence of a loop over the sorted
// vector — so every result is bit-identical to the sort-based definition
// (isolated nodes count with degree zero).
func summarizeDegrees(v []int64) (max int64, median, gini float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	min, max := v[0], v[0]
	for _, x := range v {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	acc := ascendingDegrees{mid: int64(len(v) / 2)}
	if min < 0 || max > histogramSlack*int64(len(v))+4096 {
		sorted := slices.Clone(v)
		slices.Sort(sorted)
		for _, x := range sorted {
			acc.add(x, 1)
		}
	} else {
		counts := make([]int64, max+1)
		for _, x := range v {
			counts[x]++
		}
		for d, c := range counts {
			if c > 0 {
				acc.add(int64(d), c)
			}
		}
	}
	if max < 0 {
		max = 0
	}
	median = float64(acc.atMid)
	if len(v)%2 == 0 {
		median = float64(acc.belowMid+acc.atMid) / 2
	}
	if acc.total != 0 {
		n := float64(len(v))
		gini = (2*acc.weighted - (n+1)*acc.total) / (n * acc.total)
	}
	return max, median, gini
}

// ascendingDegrees accumulates the order statistics and the Gini sums of
// a degree vector presented in ascending order, as runs of equal values.
type ascendingDegrees struct {
	mid             int64 // rank (0-based) of the upper median
	seen            int64 // values consumed so far
	belowMid, atMid int64 // the values at ranks mid-1 and mid
	total, weighted float64
}

// add consumes a run of count nodes of degree x, x no smaller than any
// value before it. The Gini sums advance once per node, not once per
// run: Σx and Σ rank·x round exactly as the per-node loop over the sorted
// vector does. A run of zeros adds +0 to both sums, which changes
// neither, so it only advances the rank.
func (a *ascendingDegrees) add(x, count int64) {
	lo, hi := a.seen, a.seen+count
	if lo < a.mid && a.mid <= hi {
		a.belowMid = x
	}
	if lo <= a.mid && a.mid < hi {
		a.atMid = x
	}
	if x != 0 {
		fx := float64(x)
		for rank := lo + 1; rank <= hi; rank++ {
			a.total += fx
			a.weighted += float64(rank) * fx
		}
	}
	a.seen = hi
}
