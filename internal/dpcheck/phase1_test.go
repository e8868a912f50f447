package dpcheck

// Phase 1, priced exactly on the corpus: the law of the grouping a
// private build draws, on D1 and on every neighbour D2 = D1 ∖ G_i.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/release"
	"repro/internal/rng"
)

// phase1Eps is the per-cut budget the audit prices, gdprelease's default.
const phase1Eps = 0.1

// sideLaw is the exact law of one side's grouping: each outcome — the
// node sets of every range at depths 1..rounds, in range order — with its
// probability.
type sideLaw map[string]float64

// phase1Law enumerates every cut sequence of one side over the order the
// build cuts along — degree descending, node id ascending — and weighs
// each by the product of its cuts' dp.Exponential.Probabilities over the
// balance utilities −|2S_k − S_n|. eps = 0 is the balanced bisector: one
// outcome, probability 1.
func phase1Law(t testing.TB, deg []int64, rounds int, eps float64) sideLaw {
	t.Helper()
	perm := make([]int32, len(deg))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool { return deg[perm[a]] > deg[perm[b]] })
	prefix := make([]int64, len(perm)+1)
	for p, v := range perm {
		prefix[p+1] = prefix[p] + deg[v]
	}
	var mech *dp.Exponential
	if eps > 0 {
		var err error
		if mech, err = dp.NewExponential(eps, 1, rng.New(0)); err != nil {
			t.Fatal(err)
		}
	}
	// cuts returns the cut choices of range [lo, hi) with their
	// probabilities; a range of fewer than two nodes keeps an empty
	// second part, as the build does.
	cuts := func(lo, hi int32) ([]int32, []float64) {
		n := hi - lo
		switch {
		case n < 2:
			return []int32{n}, []float64{1}
		case mech == nil:
			k, err := partition.BalancedBisector{}.Bisect(prefix[lo : hi+1])
			if err != nil {
				t.Fatal(err)
			}
			return []int32{int32(k)}, []float64{1}
		}
		ks := make([]int32, n-1)
		utils := make([]float64, n-1)
		for i := range ks {
			ks[i] = int32(i + 1)
			utils[i] = -math.Abs(float64(2*(prefix[lo+ks[i]]-prefix[lo]) - (prefix[hi] - prefix[lo])))
		}
		probs, err := mech.Probabilities(utils)
		if err != nil {
			t.Fatal(err)
		}
		return ks, probs
	}
	law := sideLaw{}
	var walk func(depths [][]int32, next []int32, r int, p float64)
	walk = func(depths [][]int32, next []int32, r int, p float64) {
		cur := depths[len(depths)-1]
		if r == len(cur)-1 { // every range of this depth is cut
			depths = append(slices.Clip(depths), append(next, cur[len(cur)-1]))
			if len(depths) > rounds {
				law[groupingKey(perm, depths[1:])] += p
				return
			}
			walk(depths, nil, 0, p)
			return
		}
		ks, probs := cuts(cur[r], cur[r+1])
		for i, k := range ks {
			walk(depths, append(slices.Clip(next), cur[r], cur[r]+k), r+1, p*probs[i])
		}
	}
	walk([][]int32{{0, int32(len(perm))}}, nil, 0, 1)
	return law
}

// groupingKey names a grouping by its node sets: per depth, each range's
// nodes in id order.
func groupingKey(perm []int32, depths [][]int32) string {
	var b strings.Builder
	for _, bounds := range depths {
		for i := 0; i+1 < len(bounds); i++ {
			nodes := slices.Clone(perm[bounds[i]:bounds[i+1]])
			slices.Sort(nodes)
			fmt.Fprint(&b, nodes)
		}
		b.WriteByte('|')
	}
	return b.String()
}

// treeKey is groupingKey of a built tree's side.
func treeKey(t testing.TB, tree *hierarchy.Tree, side bipartite.Side) string {
	t.Helper()
	perm, err := tree.SidePermutation(side)
	if err != nil {
		t.Fatal(err)
	}
	var depths [][]int32
	for level := tree.MaxLevel() - 1; level >= 0; level-- {
		bounds, err := tree.SideBounds(level, side)
		if err != nil {
			t.Fatal(err)
		}
		depths = append(depths, bounds)
	}
	return groupingKey(perm, depths)
}

// balancedKey is the one grouping the balanced bisector makes of both
// sides.
func balancedKey(t testing.TB, left, right []int64) string {
	t.Helper()
	var key string
	for o := range phase1Law(t, left, corpusRounds, 0) {
		key += o
	}
	for o := range phase1Law(t, right, corpusRounds, 0) {
		key += "#" + o
	}
	return key
}

// degrees returns both sides' degrees over the edges keep admits.
func degrees(g graph, keep func(i int) bool) (left, right []int64) {
	left, right = make([]int64, g.nl), make([]int64, g.nr)
	for i, e := range g.edges {
		if keep(i) {
			left[e.Left]++
			right[e.Right]++
		}
	}
	return left, right
}

// logRatio bounds |ln P1/P2| over one side's outcomes: the largest and
// smallest ln P1(o) − ln P2(o), or ok false when the supports differ.
func logRatio(p1, p2 sideLaw) (hi, lo float64, ok bool) {
	if len(p1) != len(p2) {
		return 0, 0, false
	}
	hi, lo = math.Inf(-1), math.Inf(1)
	for o, a := range p1 {
		b, in := p2[o]
		if !in {
			return 0, 0, false
		}
		r := math.Log(a) - math.Log(b)
		hi, lo = max(hi, r), min(lo, r)
	}
	return hi, lo, true
}

// TestPhase1ExactLoss prices the paper's Phase 1 exactly. For every
// corpus graph, every level and every group model, it enumerates the law
// of both sides' groupings on D1 and on each D2 = D1 ∖ G_i — under each
// dataset's own degree order, at the per-cut ε gdprelease defaults to —
// and reports the worst |ln P1/P2| over groupings per level beside
// release.PhaseCost's total, and for the balanced bisector (gdpserve's
// -phase1-eps 0 default) how many neighbours change the grouping, which
// is an unbounded loss. The two sides cut independently, so a joint
// log-ratio is the sum of the sides'. The numbers are reported, not
// gated: the test fails only if the enumerated law disagrees with what
// hierarchy.BuildFromEdges draws through partition.ForEpsilon.
func TestPhase1ExactLoss(t *testing.T) {
	t.Parallel()
	_, total := release.PhaseCost(corpusRounds, phase1Eps)
	fxs := corpusFixtures(t)
	type row struct {
		neighbours, unbounded, balancedMoved int
		worst                                float64
	}
	rows := map[levelModel]*row{}
	laws := map[string]sideLaw{} // by degree vector: neighbours often share one
	law := func(deg []int64) sideLaw {
		key := fmt.Sprint(deg)
		if laws[key] == nil {
			laws[key] = phase1Law(t, deg, corpusRounds, phase1Eps)
		}
		return laws[key]
	}
	for _, fx := range fxs {
		l1, r1 := degrees(fx.graph, func(int) bool { return true })
		left1, right1 := law(l1), law(r1)
		balanced1 := balancedKey(t, l1, r1)
		for key, nbs := range fx.nbs {
			r := rows[key]
			if r == nil {
				r = &row{}
				rows[key] = r
			}
			for _, nb := range nbs {
				r.neighbours++
				l2, r2 := degrees(fx.graph, func(i int) bool { return !nb.removed(i) })
				if balancedKey(t, l2, r2) != balanced1 {
					r.balancedMoved++
				}
				lh, ll, lok := logRatio(left1, law(l2))
				rh, rl, rok := logRatio(right1, law(r2))
				if !lok || !rok {
					r.unbounded++
					continue
				}
				r.worst = max(r.worst, lh+rh, -(ll + rl))
			}
		}
	}
	for level := corpusRounds; level >= 0; level-- {
		for _, model := range models {
			r := rows[levelModel{level, model}]
			t.Logf("level %d %-11s: %4d neighbours; ε=%v per cut (PhaseCost total %v): %4d change the grouping's support (unbounded), worst finite |ln P1/P2| %.3f; balanced bisector: %4d change the grouping",
				level, model, r.neighbours, phase1Eps, total.Epsilon, r.unbounded, r.worst, r.balancedMoved)
		}
	}

	// The cross-check: the enumerated law is what the build draws, on two
	// graphs of unequal degrees.
	for _, fx := range fxs {
		if fx.name != "staircase" && fx.name != "random3" {
			continue
		}
		l, r := degrees(fx.graph, func(int) bool { return true })
		left, right := law(l), law(r)
		const seeds = 2000
		seen := map[string]float64{}
		for seed := range uint64(seeds) {
			b, err := partition.ForEpsilon(phase1Eps, rng.New(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			tree, err := hierarchy.BuildFromEdges(fx.source(), hierarchy.Options{Rounds: corpusRounds, Bisector: b})
			if err != nil {
				t.Fatal(err)
			}
			kl, kr := treeKey(t, tree, bipartite.Left), treeKey(t, tree, bipartite.Right)
			if _, ok := left[kl]; !ok {
				t.Fatalf("%s seed %d: left grouping %s is outside the enumerated law", fx.name, seed+1, kl)
			}
			if _, ok := right[kr]; !ok {
				t.Fatalf("%s seed %d: right grouping %s is outside the enumerated law", fx.name, seed+1, kr)
			}
			seen[kl+"#"+kr]++
		}
		chi2, df := pooledChiSquare(left, right, seen, seeds)
		limit := chiSquareQuantile(df, z1e6)
		t.Logf("%s: %d builds against the enumerated law: χ²=%.1f (df %d, p=1e-6 bound %.1f)", fx.name, seeds, chi2, df, limit)
		if chi2 > limit {
			t.Errorf("%s: hierarchy.BuildFromEdges does not draw the enumerated Phase-1 law: χ²=%.1f > %.1f", fx.name, chi2, limit)
		}
	}
}

// pooledChiSquare compares n observed joint groupings with the product of
// the two side laws. The joint outcomes, in order of probability, are
// pooled into classes expecting at least 20 draws each.
func pooledChiSquare(left, right sideLaw, seen map[string]float64, n int) (chi2 float64, df int) {
	type outcome struct {
		key string
		p   float64
	}
	var all []outcome
	for kl, pl := range left {
		for kr, pr := range right {
			all = append(all, outcome{kl + "#" + kr, pl * pr})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].p != all[b].p {
			return all[a].p > all[b].p
		}
		return all[a].key < all[b].key
	})
	var e, o, cum float64
	classes := 0
	for i, oc := range all {
		e += oc.p * float64(n)
		o += seen[oc.key]
		cum += oc.p
		if last := i == len(all)-1; last || e >= 20 && (1-cum)*float64(n) >= 20 {
			chi2 += (o - e) * (o - e) / e
			classes++
			e, o = 0, 0
		}
	}
	return chi2, classes - 1
}
