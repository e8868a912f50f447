package dpcheck

// The neighbours the exact audits range over, and the closed form of what
// a neighbour's shift costs under each mechanism. Nothing here draws
// noise or calls the calibration code under audit.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

// corpusRounds is the depth of every corpus tree: levels 0, 1 and 2.
const corpusRounds = 2

// graph is one dataset D1.
type graph struct {
	name   string
	nl, nr int32
	edges  []bipartite.Edge
}

func (g graph) source() bipartite.EdgeSource {
	return bipartite.NewSliceSource(g.nl, g.nr, g.edges)
}

// corpus returns the dozen graphs of at most 6 × 6 the audits run on:
// five fixed shapes and seven random ones of growing density, some with
// isolated nodes and some with fewer than four nodes on a side, so a
// depth-2 range can be empty.
func corpus() []graph {
	var gs []graph
	add := func(name string, nl, nr int32, keep func(l, r int32) bool) {
		g := graph{name: name, nl: nl, nr: nr}
		for l := range nl {
			for r := range nr {
				if keep(l, r) {
					g.edges = append(g.edges, bipartite.Edge{Left: l, Right: r})
				}
			}
		}
		gs = append(gs, g)
	}
	add("complete", 6, 6, func(l, r int32) bool { return true })
	add("star", 6, 6, func(l, r int32) bool { return l == 0 || r == 0 })
	add("staircase", 6, 6, func(l, r int32) bool { return l+r < 6 })
	add("blocks", 6, 6, func(l, r int32) bool { return (l < 3) == (r < 3) })
	add("thin", 3, 5, func(l, r int32) bool { return (l+2*r)%3 != 0 })
	for i := range 7 {
		src := rng.New(uint64(100 + i))
		p := 0.2 + 0.1*float64(i)
		add(fmt.Sprintf("random%d", i), int32(4+i%3), int32(6-i%3), func(l, r int32) bool { return src.Float64() < p })
	}
	return gs
}

// skewed is a heavy-tailed dataset of 1500 associations: unequal groups,
// so a level's sensitivity is its largest group and not every group's.
func skewed(t testing.TB) graph {
	t.Helper()
	edges, nl, nr, err := datagen.EdgeList(datagen.Config{
		Name: "dpcheck", NumLeft: 120, NumRight: 160, NumEdges: 1500,
		LeftZipf: 1.9, RightZipf: 2.8, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return graph{name: "skewed", nl: nl, nr: nr, edges: edges}
}

var models = []core.GroupModel{core.ModelCells, core.ModelNodeGroups, core.ModelIndividual}

// neighbour is one D2 = D1 ∖ G_i, for a group G_i of one level under one
// model.
type neighbour struct {
	group string
	// removed reports whether D1's edge i belongs to G_i; D2 is the rest.
	removed func(i int) bool
	// count is |G_i|, the count query's shift.
	count int64
	// cells is the level's cell histogram of D1 minus that of D2, both
	// counted on D1's tree.
	cells []int64
}

type levelModel struct {
	level int
	model core.GroupModel
}

// fixture is a dataset with its ε = 0 (balanced) tree and the neighbours
// of every level under every model.
type fixture struct {
	graph
	tree *hierarchy.Tree
	nbs  map[levelModel][]neighbour
}

// newFixture builds g's balanced tree and enumerates its neighbours: per
// level, every cell (ModelCells), every side group with all its nodes'
// associations (ModelNodeGroups) and every association
// (ModelIndividual). Each D2 is recounted on D1's tree, and D1's own
// count must reproduce the tree's cells.
func newFixture(t testing.TB, g graph, rounds int) *fixture {
	t.Helper()
	if len(g.edges) == 0 {
		t.Fatalf("%s: no associations", g.name)
	}
	tree, err := hierarchy.BuildFromEdges(g.source(), hierarchy.Options{Rounds: rounds, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	fx := &fixture{graph: g, tree: tree, nbs: map[levelModel][]neighbour{}}
	for level := range tree.MaxLevel() + 1 {
		k, err := tree.NumSideGroups(level)
		if err != nil {
			t.Fatal(err)
		}
		leftOf := groupsOf(t, tree, level, bipartite.Left, g.nl)
		rightOf := groupsOf(t, tree, level, bipartite.Right, g.nr)
		hist := func(keep func(i int) bool) []int64 {
			h := make([]int64, k*k)
			for i, e := range g.edges {
				if keep(i) {
					h[leftOf[e.Left]*k+rightOf[e.Right]]++
				}
			}
			return h
		}
		whole := hist(func(int) bool { return true })
		if view, err := tree.LevelCellCountsView(level); err != nil || !slices.Equal(whole, view) {
			t.Fatalf("%s level %d: D1 counted on its tree %v, the tree holds %v (%v)", g.name, level, whole, view, err)
		}
		add := func(model core.GroupModel, group string, removed func(i int) bool) {
			nb := neighbour{group: group, removed: removed, cells: hist(func(i int) bool { return !removed(i) })}
			for c := range nb.cells {
				nb.cells[c] = whole[c] - nb.cells[c]
				nb.count += nb.cells[c]
			}
			key := levelModel{level, model}
			fx.nbs[key] = append(fx.nbs[key], nb)
		}
		for a := range k {
			for b := range k {
				add(core.ModelCells, fmt.Sprintf("cell (%d,%d)", a, b), func(i int) bool {
					return leftOf[g.edges[i].Left] == a && rightOf[g.edges[i].Right] == b
				})
			}
		}
		for a := range k {
			add(core.ModelNodeGroups, fmt.Sprintf("left group %d", a), func(i int) bool { return leftOf[g.edges[i].Left] == a })
			add(core.ModelNodeGroups, fmt.Sprintf("right group %d", a), func(i int) bool { return rightOf[g.edges[i].Right] == a })
		}
		for j, e := range g.edges {
			add(core.ModelIndividual, fmt.Sprintf("association %d-%d", e.Left, e.Right), func(i int) bool { return i == j })
		}
	}
	return fx
}

// corpusFixtures returns the corpus's fixtures.
func corpusFixtures(t testing.TB) []*fixture {
	var fxs []*fixture
	for _, g := range corpus() {
		fxs = append(fxs, newFixture(t, g, corpusRounds))
	}
	return fxs
}

// groupsOf maps each node of one side to its group at the level.
func groupsOf(t testing.TB, tree *hierarchy.Tree, level int, side bipartite.Side, n int32) []int {
	t.Helper()
	k, err := tree.NumSideGroups(level)
	if err != nil {
		t.Fatal(err)
	}
	of := make([]int, n)
	for i := range of {
		of[i] = -1
	}
	for i := range k {
		nodes, err := tree.SideGroupNodes(level, side, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range nodes {
			of[v] = i
		}
	}
	if slices.Contains(of, -1) {
		t.Fatalf("level %d: a %s node is in no group", level, side)
	}
	return of
}

// sameTree fails unless got groups the nodes exactly as the fixture's
// tree does: the audited release ran on the tree whose neighbours were
// enumerated.
func sameTree(t testing.TB, where string, want, got *hierarchy.Tree) {
	t.Helper()
	for _, side := range []bipartite.Side{bipartite.Left, bipartite.Right} {
		wp, err1 := want.SidePermutation(side)
		gp, err2 := got.SidePermutation(side)
		if err1 != nil || err2 != nil || !slices.Equal(wp, gp) {
			t.Fatalf("%s: the release's %s order %v differs from the audited tree's %v", where, side, gp, wp)
		}
		for level := range want.MaxLevel() + 1 {
			wb, err1 := want.SideBounds(level, side)
			gb, err2 := got.SideBounds(level, side)
			if err1 != nil || err2 != nil || !slices.Equal(wb, gb) {
				t.Fatalf("%s: the release's level-%d %s groups %v differ from the audited tree's %v", where, level, side, gb, wb)
			}
		}
	}
}

// label is what one shipped release says about itself: the level and the
// group model its guarantee names, its (ε, δ), its mechanism, how its
// scale was calibrated and the standard deviation it reports.
type label struct {
	level      int
	model      core.GroupModel
	mech       core.NoiseMechanism
	calib      string
	eps, delta float64
	sigma      float64
}

func countLabel(t testing.TB, r core.LevelRelease) label {
	t.Helper()
	return label{level: r.Level, model: modelNamed(t, r.ModelName), mech: mechNamed(t, r.MechName),
		calib: r.CalibName, eps: r.Epsilon, delta: r.Delta, sigma: r.Sigma}
}

// cellsLabel reads a cell release's label; an empty MechName is Gaussian.
func cellsLabel(t testing.TB, r core.CellRelease) label {
	t.Helper()
	mech := core.MechGaussian
	if r.MechName != "" {
		mech = mechNamed(t, r.MechName)
	}
	return label{level: r.Level, model: modelNamed(t, r.ModelName), mech: mech,
		calib: r.CalibName, eps: r.Epsilon, delta: r.Delta, sigma: r.Sigma}
}

func modelNamed(t testing.TB, name string) core.GroupModel {
	t.Helper()
	for _, m := range models {
		if m.String() == name {
			return m
		}
	}
	t.Fatalf("release names an unknown model %q", name)
	return 0
}

func mechNamed(t testing.TB, name string) core.NoiseMechanism {
	t.Helper()
	for _, m := range []core.NoiseMechanism{core.MechGaussian, core.MechLaplace, core.MechGeometric} {
		if m.String() == name {
			return m
		}
	}
	t.Fatalf("release names an unknown mechanism %q", name)
	return 0
}

// bound is the label's value in the unit loss returns: δ for Gaussian
// noise, ε for the pure mechanisms.
func (l label) bound() float64 {
	if l.mech == core.MechGaussian {
		return l.delta
	}
	return l.eps
}

// exact reports whether the calibration behind the label is exact, so
// the worst neighbour must cost the label and not less: analytic and
// composed-rdp Gaussian noise, and the pure mechanisms.
func (l label) exact() bool {
	return l.mech != core.MechGaussian || l.calib == "analytic" || l.calib == "rdp"
}

// loss is the exact privacy loss of a neighbour that shifts the release
// by s: under Gaussian noise the hockey-stick δ at the label's ε, under
// Laplace noise ‖s‖₁/b, under geometric noise ‖s‖₁·ln(1/α), with b and α
// read off the reported standard deviation. Rounding the released values
// is post-processing and cannot raise it.
func (l label) loss(s []int64) float64 {
	var l1, sq float64
	for _, v := range s {
		l1 += math.Abs(float64(v))
		sq += float64(v) * float64(v)
	}
	if l1 == 0 {
		return 0
	}
	switch l.mech {
	case core.MechLaplace:
		return l1 / (l.sigma / math.Sqrt2)
	case core.MechGeometric:
		return l1 * -math.Log(geometricAlpha(l.sigma))
	default:
		return hockeyStick(l.eps, math.Sqrt(sq), l.sigma)
	}
}

// hockeyStick is the smallest δ for which N(0, σ²) noise on a query whose
// two inputs differ by l2 in L2 norm is (ε, δ)-indistinguishable (Balle &
// Wang, ICML 2018, Theorem 8): Φ(l2/2σ − εσ/l2) − e^ε·Φ(−l2/2σ − εσ/l2).
// No noise on a moved query is δ = 1.
func hockeyStick(eps, l2, sigma float64) float64 {
	a, b := l2/(2*sigma), eps*sigma/l2
	return normalCDF(a-b) - math.Exp(eps)*normalCDF(-a-b)
}

func normalCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// geometricAlpha inverts the two-sided geometric's standard deviation
// σ = √(2α)/(1−α): α = σ²/(σ² + 1 + √(2σ² + 1)), the cancellation-free
// root of σ²α² − 2(σ²+1)α + σ² = 0 in (0, 1).
func geometricAlpha(sigma float64) float64 {
	s2 := sigma * sigma
	return s2 / (s2 + 1 + math.Sqrt(2*s2+1))
}

func countShift(nb neighbour) []int64 { return []int64{nb.count} }
func cellShift(nb neighbour) []int64  { return nb.cells }

// worstLoss returns the largest loss over the neighbours, the group that
// causes it, and whether any neighbour moves the release at all.
func worstLoss(l label, nbs []neighbour, shift func(neighbour) []int64) (worst float64, group string, moved bool) {
	for _, nb := range nbs {
		s := shift(nb)
		moved = moved || slices.ContainsFunc(s, func(v int64) bool { return v != 0 })
		if loss := l.loss(s); loss > worst || group == "" {
			worst, group = loss, nb.group
		}
	}
	return worst, group, moved
}

// audit checks one release against every neighbour of the level and the
// model its label names: the worst exact loss stays within the label,
// and where the calibration is exact it equals the label.
func audit(t testing.TB, where string, fx *fixture, l label, shift func(neighbour) []int64) {
	t.Helper()
	nbs := fx.nbs[levelModel{l.level, l.model}]
	if len(nbs) == 0 {
		t.Fatalf("%s: no %s neighbours at level %d", where, l.model, l.level)
	}
	worst, group, moved := worstLoss(l, nbs, shift)
	if bound := l.bound(); worst > bound*(1+1e-9) {
		t.Errorf("%s level %d (%s, %s): removing %s costs %.6g, over the label's %.6g", where, l.level, l.mech, l.model, group, worst, bound)
	} else if l.exact() && moved && math.Abs(worst-bound) > 1e-6*bound {
		t.Errorf("%s level %d (%s, %s, %s): the worst neighbour (%s) costs %.9g, not the label's %.9g", where, l.level, l.mech, l.model, l.calib, group, worst, bound)
	}
}
