package bipartite

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestComputeStatsFixture(t *testing.T) {
	t.Parallel()
	g := buildTestGraph(t)
	s := ComputeStats(g)
	if s.NumLeft != 3 || s.NumRight != 3 || s.NumEdges != 6 {
		t.Fatalf("shape = %d/%d/%d", s.NumLeft, s.NumRight, s.NumEdges)
	}
	if s.MeanLeftDegree != 2 || s.MeanRightDegree != 2 {
		t.Errorf("means = %v/%v, want 2/2", s.MeanLeftDegree, s.MeanRightDegree)
	}
	if s.MaxLeftDegree != 3 || s.MaxRightDegree != 3 {
		t.Errorf("max = %d/%d, want 3/3", s.MaxLeftDegree, s.MaxRightDegree)
	}
	if s.MedianLeftDegree != 2 {
		t.Errorf("median left = %v, want 2", s.MedianLeftDegree)
	}
	// density = 6 / 9
	if math.Abs(s.Density-6.0/9.0) > 1e-12 {
		t.Errorf("density = %v", s.Density)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	t.Parallel()
	s := ComputeStats(&Graph{})
	if s.NumEdges != 0 || s.MeanLeftDegree != 0 || s.Density != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestStatsString(t *testing.T) {
	t.Parallel()
	s := ComputeStats(buildTestGraph(t))
	out := s.String()
	for _, want := range []string{"|L|=3", "|R|=3", "|E|=6", "gini"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String() = %q missing %q", out, want)
		}
	}
}

func TestGiniUniformIsZero(t *testing.T) {
	t.Parallel()
	// A perfectly regular graph has Gini 0 on both sides.
	g, err := FromEdges(4, 4, []Edge{
		{0, 0}, {1, 1}, {2, 2}, {3, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.GiniLeft != 0 || s.GiniRight != 0 {
		t.Errorf("gini = %v/%v, want 0/0", s.GiniLeft, s.GiniRight)
	}
}

func TestGiniConcentrated(t *testing.T) {
	t.Parallel()
	// One hub owns every edge: Gini approaches (n-1)/n.
	edges := make([]Edge, 10)
	for i := range edges {
		edges[i] = Edge{Left: 0, Right: int32(i)}
	}
	g, err := FromEdges(5, 10, edges)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.GiniLeft < 0.7 {
		t.Errorf("GiniLeft = %v, want high concentration", s.GiniLeft)
	}
}

// referenceStats is the sort-based definition of the summary — the
// implementation StatsFromDegrees had before it moved to one counting
// histogram per side — kept here, and only here, as the reference every
// field is compared against with ==.
func referenceStats(left, right []int64) Stats {
	sortedCopy := func(v []int64) []int64 {
		s := append([]int64(nil), v...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	maxOf := func(v []int64) int64 {
		var m int64
		for _, x := range v {
			if x > m {
				m = x
			}
		}
		return m
	}
	medianOf := func(v []int64) float64 {
		if len(v) == 0 {
			return 0
		}
		s := sortedCopy(v)
		mid := len(s) / 2
		if len(s)%2 == 1 {
			return float64(s[mid])
		}
		return float64(s[mid-1]+s[mid]) / 2
	}
	gini := func(v []int64) float64 {
		if len(v) == 0 {
			return 0
		}
		var total, weighted float64
		for i, x := range sortedCopy(v) {
			total += float64(x)
			weighted += float64(i+1) * float64(x)
		}
		if total == 0 {
			return 0
		}
		n := float64(len(v))
		return (2*weighted - (n+1)*total) / (n * total)
	}
	var edges int64
	for _, d := range left {
		edges += d
	}
	s := Stats{NumLeft: len(left), NumRight: len(right), NumEdges: edges}
	if s.NumLeft > 0 {
		s.MeanLeftDegree = float64(edges) / float64(s.NumLeft)
	}
	if s.NumRight > 0 {
		s.MeanRightDegree = float64(edges) / float64(s.NumRight)
	}
	s.MaxLeftDegree, s.MaxRightDegree = maxOf(left), maxOf(right)
	s.MedianLeftDegree, s.MedianRightDegree = medianOf(left), medianOf(right)
	s.GiniLeft, s.GiniRight = gini(left), gini(right)
	if s.NumLeft > 0 && s.NumRight > 0 {
		s.Density = float64(edges) / (float64(s.NumLeft) * float64(s.NumRight))
	}
	return s
}

// heavyTailDegrees draws n degrees with a power-law tail (most nodes at
// 0–2, a few hubs near max), deterministic in seed.
func heavyTailDegrees(n int, max int64, seed uint64) []int64 {
	out := make([]int64, n)
	x := seed
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		u := float64(x>>11) / (1 << 53)
		out[i] = int64(float64(max) * math.Pow(u, 12))
	}
	return out
}

// TestStatsFromDegreesMatchesSortedReference compares the histogram
// summary with the sort-based reference on every shape that takes a
// different branch: no nodes, one node, all-zero and all-equal sides, odd
// and even lengths, a hub whose degree dwarfs the side (the sort
// fallback), negative entries (same fallback) and heavy tails large
// enough for the float sums to round.
func TestStatsFromDegreesMatchesSortedReference(t *testing.T) {
	t.Parallel()
	hub := make([]int64, 9)
	hub[4] = 1 << 40
	cases := map[string][2][]int64{
		"empty":       {nil, nil},
		"single":      {{7}, {7}},
		"single-zero": {{0}, {0}},
		"all-zero":    {make([]int64, 6), make([]int64, 5)},
		"all-equal":   {{3, 3, 3, 3}, {4, 4, 4}},
		"odd":         {{5, 1, 4, 2, 3}, {0, 9, 0, 1, 5}},
		"even":        {{5, 1, 4, 2, 3, 9}, {0, 9, 0, 1}},
		"two":         {{0, 8}, {8, 0}},
		"hub":         {hub, {1 << 40}},
		"hub-even":    {append([]int64{2, 1 << 40}, hub[:6]...), {1, 2}},
		"negative":    {{-3, 2, 0, 5}, {-1, -2, -7}},
		"heavy-tail":  {heavyTailDegrees(40_001, 30_000, 1), heavyTailDegrees(70_000, 900, 2)},
		"heavy-wide":  {heavyTailDegrees(1000, 1<<45, 3), heavyTailDegrees(999, 1<<50, 4)},
	}
	for name, c := range cases {
		got, want := StatsFromDegrees(c[0], c[1]), referenceStats(c[0], c[1])
		if got != want {
			t.Errorf("%s:\n  got  %+v\n  want %+v", name, got, want)
		}
	}
}

var statsSink Stats

// BenchmarkStatsFromDegrees times the dataset summary at the benchmark
// graph's shape: 400 k + 700 k heavy-tailed degrees.
func BenchmarkStatsFromDegrees(b *testing.B) {
	left := heavyTailDegrees(400_000, 60_000, 1)
	right := heavyTailDegrees(700_000, 2_000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statsSink = StatsFromDegrees(left, right)
	}
}
