// Package hierarchy builds and represents the multi-level group structure
// produced by the paper's Phase-1 specialization.
//
// Each side of the bipartite graph carries a binary bisection tree: one
// specialization round splits every current node group of the left side in
// two and every current node group of the right side in two, each cut
// chosen by a partition.Bisector (the exponential mechanism in the private
// configuration). This realizes the paper's "each group in level i is
// split to 4 subgroups in level i−1; two sub groups correspond to the left
// side nodes of the bipartite graph and the other two sub groups refer to
// the right side nodes".
//
// Two group semantics are derived from the side trees (core.GroupModel):
//
//   - Cell model (primary): the level-ℓ groups of the record universe are
//     the crossings (Li, Rj) of the 2^d left ranges and 2^d right ranges
//     at depth d = MaxLevel − ℓ. A cell's records are the associations
//     between its two ranges; cells partition the record universe at every
//     level, exactly the structure Definition 3 (group-level adjacency)
//     ranges over. Count-query sensitivity at a level is the largest cell.
//
//   - Node-group model (ablation A4): the groups are the side ranges
//     themselves, and removing a group removes all associations incident
//     to its nodes; sensitivity is the largest incident-edge sum.
//
// Levels follow the paper's numbering: the root (entire dataset) sits at
// level MaxLevel and groups get four times smaller per level down; with
// the paper's nine rounds the root is level 9 and level 0 is the finest.
//
// Representation: per side, a permutation of node ids plus, per depth, the
// boundaries of the 2^d contiguous ranges over that permutation and each
// range's summed degree. The permutation is the side's bisector order,
// fixed before the first cut; a split only adds a boundary inside its own
// range, so deeper levels strictly refine shallower ones and all levels
// share one permutation. The permutation is the only per-node array a
// built tree keeps — 4 bytes per node: the degrees, their prefix sums and
// the sort's scratch are build state, dropped as soon as their last
// reader is done.
//
// # One build
//
// Phase 1 consumes only per-node degrees and Phase 2 only the finest
// cell counts, so every tree is built by BuildFromEdges: two passes over a
// bipartite.EdgeSource (stream.go), the first for the degrees, the second
// for the finest cell matrix. A caller holding a Graph passes it as
// bipartite.NewGraphSource(g).
//
// A build keeps nothing behind: every array it allocates either belongs
// to the returned Tree or is garbage by the time the call returns, so a
// Builder carries no state — no scratch, no goroutines, no reference to
// a finished build's bisector. It remains as the handle repeated-build
// callers are written against: NewBuilder, Builder.BuildFromEdges per
// build, Close when done. BuildFromEdges, the package function, is the
// same call on a throwaway Builder.
//
// # Complexity and parallelism
//
// A build runs in O(E + n + cuts·log n + Σ_d 4^d) time plus the private
// sampler's live windows. The bisector ordering is a static total order
// (degree descending, node id ascending), so each side
// is sorted once, before the first round, by a stable counting sort of
// the node ids; its degree prefix sums are taken once, right after; and
// every range of every round — a contiguous span of the sorted side — is
// handed to the bisector as a window of that one prefix array, with no
// per-range preparation at all. The same prefix sums give every new
// range's summed degree as one difference, stored per depth, so
// SideGroupIncidentEdges is O(groups) per call and the node-group
// sensitivity O(1) long after the prefix sums are gone. The cut
// decisions are serial, in range order, so randomized bisectors consume
// their stream deterministically. The per-cell record counts are
// computed once at the deepest level in the second pass (edge chunks
// fanned out across Options.Workers goroutines with per-worker count
// buffers merged at the end) and every coarser level is derived by
// summing 2×2 child blocks bottom-up — never by rescanning edges.
// Workers shards only order-independent integer sums, so the built tree
// is bit-identical for every worker count.
package hierarchy

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/partition"
)

// MaxRounds caps tree depth; 4^12 cells is the largest level a dense
// per-level cell matrix can reasonably hold.
const MaxRounds = 12

// maxShardCells caps the combined size of the per-worker count buffers
// the sharded deepest-level scan allocates (in int64 cells). Past it the
// scan falls back to a single pass: at that depth the merge and the
// buffers themselves would cost more than the edge scan saves.
const maxShardCells = 1 << 24

// Options configures a build.
type Options struct {
	// Rounds is the number of specialization rounds; the resulting tree
	// has Rounds+1 levels with the root at level Rounds. Must be in
	// [1, MaxRounds].
	Rounds int
	// Bisector chooses every cut. Required.
	Bisector partition.Bisector
	// Workers shards both passes over the edges — the degree pass (for
	// sources that declare their sides) and the deepest-level cell scan —
	// across goroutines. Sorting and the cut decisions are serial, so the
	// built tree is identical for any worker count. Values < 2 run
	// single-threaded.
	Workers int
}

// Errors returned by a build and the accessors.
var (
	ErrNilBisector = errors.New("hierarchy: nil bisector")
	ErrBadRounds   = errors.New("hierarchy: rounds must be in [1, 12]")
	ErrBadLevel    = errors.New("hierarchy: level out of range")
	ErrInvalid     = errors.New("hierarchy: invalid tree")
)

// sideTree is the recursive bisection of one node side: the published
// order, its ranges, and each range's summed degree. Nothing in it is
// indexed by node or by position but perm, so a built tree keeps 4 bytes
// per node; the per-node build state lives in sideBuild.
type sideTree struct {
	perm []int32 // position -> node id
	// bounds[d] holds the 2^d+1 range boundaries at depth d:
	// range i spans positions [bounds[d][i], bounds[d][i+1]).
	bounds [][]int32
	// groupDeg[d][i] is the summed degree of depth-d range i — the
	// associations incident to the group's nodes — taken from the build's
	// degree prefix sums right after the cut that made the range.
	groupDeg [][]int64
	// maxGroupDeg[d] caches the largest entry of groupDeg[d], the way
	// maxCells does for the cells, so the node-group sensitivity is O(1)
	// and allocation-free.
	maxGroupDeg []int64
}

// Tree is the built hierarchy: both sides' orders, range boundaries and
// per-range degree sums, the edge total, one int64 cell count matrix per
// level with its cached largest count, and the dataset summary. It holds
// no edges, no per-node data beyond the two permutations and no second
// copy of the counts, and it is immutable once built.
type Tree struct {
	maxLevel int

	left  sideTree
	right sideTree

	// numEdges is the number of association records the tree was built
	// over.
	numEdges int64

	// cells[d] is the row-major (2^d)x(2^d) matrix of per-cell record
	// counts at depth d, the depth's one copy of its counts (8 B per
	// cell). Only cells[maxDepth] is counted from edges; every coarser
	// matrix is the 2×2 block aggregation of its child.
	cells [][]int64
	// maxCells[d] caches the largest entry of cells[d], so the cell-model
	// sensitivity — consulted by every Phase-2 release — is O(1) instead
	// of a 4^d scan per query. The release also reads it to choose its
	// rounding: every count at the depth is at most maxCells[d].
	maxCells []int64

	// stats is the dataset summary, computed once per build from the
	// pass-1 degrees (specialize); DatasetStats serves it.
	stats bipartite.Stats

	privateCuts int
}

// Builder is the handle repeated-build callers hold. It is stateless — a
// build retains nothing, see the package comment — so one Builder may
// serve any number of builds, concurrently too, and trees built through
// it are bit-identical to ones from the package functions.
type Builder struct{}

// NewBuilder returns a Builder.
func NewBuilder() *Builder { return &Builder{} }

// Close is a no-op, kept so callers that pair NewBuilder with Close keep
// compiling; the Builder remains usable.
func (b *Builder) Close() {}

// normalizeOptions validates opts.
func normalizeOptions(opts *Options) error {
	if opts.Bisector == nil {
		return ErrNilBisector
	}
	if opts.Rounds < 1 || opts.Rounds > MaxRounds {
		return fmt.Errorf("%w (got %d)", ErrBadRounds, opts.Rounds)
	}
	return nil
}

// specialize summarizes, orders and indexes both sides, then executes
// every specialization round. Cuts consume only the per-node degrees,
// held in the returned build state, which pass 2 reads for the sides'
// finest groups (sideBuild.finestGroups).
func (t *Tree) specialize(leftDeg, rightDeg []int64, opts Options) (left, right sideBuild, err error) {
	t.stats = bipartite.StatsFromDegrees(leftDeg, rightDeg)
	left, right = newSideBuild(&t.left, leftDeg), newSideBuild(&t.right, rightDeg)
	// Both sides in bisector order. The order is static and total, so
	// this one arrangement serves every round: each deeper range is a
	// contiguous span of an ordered span.
	left.sortByDegree(t.stats.MaxLeftDegree)
	right.sortByDegree(t.stats.MaxRightDegree)
	left.index()
	right.index()
	t.numEdges = t.left.groupDeg[0][0]
	private := false
	if pc, ok := opts.Bisector.(partition.PrivacyConsumer); ok {
		private = pc.Private()
	}
	for d := 0; d < opts.Rounds; d++ {
		for _, side := range [...]struct {
			name string
			sb   *sideBuild
		}{{"left", &left}, {"right", &right}} {
			cuts, err := side.sb.splitDepth(d, opts.Bisector)
			if err != nil {
				return sideBuild{}, sideBuild{}, fmt.Errorf("hierarchy: splitting %s side at depth %d: %w", side.name, d, err)
			}
			if private {
				t.privateCuts += cuts
			}
		}
	}
	return left, right, nil
}

// sideBuild is one side's per-node build state: the arrays the cuts and
// pass 2 read and the finished Tree does not keep. Each is dropped once
// its last reader is done, so what outlives the build is st alone.
type sideBuild struct {
	st *sideTree
	// deg[node] is the node's degree, filled by pass 1; dropped by index.
	deg []int64
	// degPrefix[p] is the summed degree of st.perm[0:p]. The permutation
	// is final once the side is ordered, before the first cut, so the
	// array is filled once, by index: the window degPrefix[lo:hi+1] is the
	// bisector's whole input for range [lo, hi), and every range's summed
	// degree is a boundary difference. Dropped by finestGroups.
	degPrefix []int64
	// scratch is the sort's ping-pong buffer, then pass 2's node id →
	// finest-group lookup (finestGroups).
	scratch []int32
}

// newSideBuild returns the unsplit side over the given per-node degrees.
// Its permutation is unset until sortByDegree arranges it.
func newSideBuild(st *sideTree, deg []int64) sideBuild {
	n := len(deg)
	st.perm = make([]int32, n)
	st.bounds = [][]int32{{0, int32(n)}}
	return sideBuild{st: st, deg: deg, scratch: make([]int32, n)}
}

// sortByDegree arranges perm by degree descending, node id breaking ties
// (the bisector order): a stable LSD counting sort of the node ids on the
// 16-bit digits of maxDeg − deg, where maxDeg is the side's largest degree
// (the dataset summary has it). The first pass scatters the nodes in id
// order straight off the degree array, so stability alone leaves equal
// degrees in node order and no digit is spent on the ids; a side whose
// largest degree is under 2^16 — any realistic one — takes that single
// pass, over a histogram of maxDeg+1 counters. Further passes ping-pong
// between perm and scratch.
func (sb *sideBuild) sortByDegree(maxDeg int64) {
	src, dst := sb.scratch, sb.st.perm
	for shift := 0; shift == 0 || maxDeg>>shift > 0; shift += 16 {
		counts := make([]int32, min(maxDeg>>shift, 0xffff)+1)
		for _, d := range sb.deg {
			counts[(maxDeg-d)>>shift&0xffff]++
		}
		var sum int32
		for digit, c := range counts {
			counts[digit], sum = sum, sum+c
		}
		if shift == 0 {
			for node, d := range sb.deg {
				digit := (maxDeg - d) & 0xffff
				dst[counts[digit]] = int32(node)
				counts[digit]++
			}
		} else {
			for _, node := range src {
				digit := (maxDeg - sb.deg[node]) >> shift & 0xffff
				dst[counts[digit]] = node
				counts[digit]++
			}
		}
		src, dst = dst, src
	}
	sb.st.perm, sb.scratch = src, dst
}

// index takes the degree prefix sums over perm, records the root's
// degree sum, and drops the degrees: the summary and the sort were their
// last readers.
func (sb *sideBuild) index() {
	sb.degPrefix = make([]int64, len(sb.st.perm)+1)
	for p, node := range sb.st.perm {
		sb.degPrefix[p+1] = sb.degPrefix[p] + sb.deg[node]
	}
	sb.deg = nil
	sb.recordGroupDegrees(0)
}

// splitDepth refines every depth-d range of the side into two, appending
// the depth d+1 boundaries and degree sums, and returns how many cuts the
// bisector made. A range's whole input is its window of the side's degree
// prefix sums. Ranges with fewer than two nodes cannot be cut and keep an
// empty second part. The decisions run serially in range order so
// randomized bisectors consume their stream deterministically.
func (sb *sideBuild) splitDepth(d int, bisector partition.Bisector) (cuts int, err error) {
	cur := sb.st.bounds[d]
	next := make([]int32, 0, 2*len(cur)-1)
	for i := 0; i+1 < len(cur); i++ {
		lo, hi := cur[i], cur[i+1]
		cut := int(hi - lo)
		if cut >= 2 {
			if cut, err = bisector.Bisect(sb.degPrefix[lo : hi+1]); err != nil {
				return 0, fmt.Errorf("range %d [%d,%d): %w", i, lo, hi, err)
			}
			cuts++
		}
		next = append(next, lo, lo+int32(cut))
	}
	sb.st.bounds = append(sb.st.bounds, append(next, cur[len(cur)-1]))
	sb.recordGroupDegrees(d + 1)
	return cuts, nil
}

// recordGroupDegrees appends the summed degree of every depth-d range, one
// prefix-sum difference each, and their maximum.
func (sb *sideBuild) recordGroupDegrees(d int) {
	bounds := sb.st.bounds[d]
	sums := make([]int64, len(bounds)-1)
	var max int64
	for i := range sums {
		sums[i] = sb.degPrefix[bounds[i+1]] - sb.degPrefix[bounds[i]]
		if sums[i] > max {
			max = sums[i]
		}
	}
	sb.st.groupDeg = append(sb.st.groupDeg, sums)
	sb.st.maxGroupDeg = append(sb.st.maxGroupDeg, max)
}

// finestGroups ends the side's cuts: it drops the degree prefix sums and
// turns the sort's scratch into the node id → finest-range index pass 2
// counts edges with, handing that array over.
func (sb *sideBuild) finestGroups() []int32 {
	sb.degPrefix = nil
	idx, perm := sb.scratch, sb.st.perm
	sb.scratch = nil
	bounds := sb.st.bounds[len(sb.st.bounds)-1]
	for i := 0; i < len(bounds)-1; i++ {
		for _, node := range perm[bounds[i]:bounds[i+1]] {
			idx[node] = int32(i)
		}
	}
	return idx
}

// setCells installs the deepest-level cell matrix and derives every
// coarser matrix plus the per-depth maxima from it.
func (t *Tree) setCells(deepest []int64) {
	depths := len(t.left.bounds)
	t.cells = make([][]int64, depths)
	t.cells[depths-1] = deepest
	for d := depths - 1; d > 0; d-- {
		t.cells[d-1] = aggregateCells(t.cells[d], 1<<d)
	}
	t.maxCells = make([]int64, depths)
	for d, cells := range t.cells {
		var max int64
		for _, c := range cells {
			if c > max {
				max = c
			}
		}
		t.maxCells[d] = max
	}
}

// aggregateCells derives the depth d−1 cell matrix from depth d: parent
// cell (i, j) is the sum of the 2×2 child block {2i, 2i+1}×{2j, 2j+1},
// because each side's depth-d ranges pairwise refine the depth d−1 ones.
func aggregateCells(child []int64, kc int) []int64 {
	kp := kc / 2
	parent := make([]int64, kp*kp)
	for i := 0; i < kp; i++ {
		top := child[2*i*kc : (2*i+1)*kc]
		bottom := child[(2*i+1)*kc : (2*i+2)*kc]
		row := parent[i*kp : (i+1)*kp]
		for j := 0; j < kp; j++ {
			row[j] = top[2*j] + top[2*j+1] + bottom[2*j] + bottom[2*j+1]
		}
	}
	return parent
}

// NumEdges returns the total number of association records the tree was
// built over.
func (t *Tree) NumEdges() int64 { return t.numEdges }

// DatasetStats summarizes the dataset from the per-node degrees of the
// build's first pass. The summary is computed once per build and every call
// returns that stored value: O(1), no allocation. For a tree built over
// bipartite.NewGraphSource(g) it equals bipartite.ComputeStats(g) bit for
// bit.
func (t *Tree) DatasetStats() bipartite.Stats { return t.stats }

// MaxLevel returns the root's level number.
func (t *Tree) MaxLevel() int { return t.maxLevel }

// NumPrivateCuts returns how many budget-consuming cuts the build made (the
// bisector implemented partition.PrivacyConsumer and reported Private);
// the release pipeline multiplies it by the per-cut ε for accounting.
func (t *Tree) NumPrivateCuts() int { return t.privateCuts }

// DepthOfLevel converts a paper-style level number to tree depth.
func (t *Tree) DepthOfLevel(level int) (int, error) {
	d := t.maxLevel - level
	if d < 0 || d >= len(t.left.bounds) {
		return 0, fmt.Errorf("%w: level %d not in [0,%d]", ErrBadLevel, level, t.maxLevel)
	}
	return d, nil
}

// NumSideGroups returns the number of node groups per side at the level
// (2^depth).
func (t *Tree) NumSideGroups(level int) (int, error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return 0, err
	}
	return 1 << d, nil
}

// NumCells returns the number of record groups (cells) at the level
// (4^depth).
func (t *Tree) NumCells(level int) (int, error) {
	k, err := t.NumSideGroups(level)
	if err != nil {
		return 0, err
	}
	return k * k, nil
}

// LevelCellCountsView returns the level's row-major cell count matrix
// without copying. The slice is the Tree's internal storage (immutable
// once built): callers must treat it as read-only. The zero-allocation
// Phase-2 release path reads counts through it instead of paying a
// 4^depth copy per release.
func (t *Tree) LevelCellCountsView(level int) ([]int64, error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return nil, err
	}
	return t.cells[d], nil
}

// findRange locates the range containing position p via binary search over
// the boundary array — the per-edge lookup the cell aggregation replaced,
// kept as its test oracle (naiveCellCounts).
func findRange(bounds []int32, p int32) int {
	// bounds is sorted; find the last boundary <= p.
	idx := sort.Search(len(bounds), func(i int) bool { return bounds[i] > p }) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(bounds)-1 {
		idx = len(bounds) - 2
	}
	return idx
}

// SideGroupNodes materializes the node ids of side group i at the level.
func (t *Tree) SideGroupNodes(level int, side bipartite.Side, i int) ([]int32, error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return nil, err
	}
	st, err := t.sideTree(side)
	if err != nil {
		return nil, err
	}
	bounds := st.bounds[d]
	if i < 0 || i >= len(bounds)-1 {
		return nil, fmt.Errorf("hierarchy: side group %d outside [0,%d)", i, len(bounds)-1)
	}
	return append([]int32(nil), st.perm[bounds[i]:bounds[i+1]]...), nil
}

func (t *Tree) sideTree(side bipartite.Side) (*sideTree, error) {
	switch side {
	case bipartite.Left:
		return &t.left, nil
	case bipartite.Right:
		return &t.right, nil
	default:
		return nil, fmt.Errorf("hierarchy: invalid side %v", side)
	}
}

// SideGroupIncidentEdges returns, per side group at the level, the number
// of associations incident to the group's nodes (the node-group model's
// group weight): a copy of the degree sums the build stored, O(groups).
func (t *Tree) SideGroupIncidentEdges(level int, side bipartite.Side) ([]int64, error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return nil, err
	}
	st, err := t.sideTree(side)
	if err != nil {
		return nil, err
	}
	return append([]int64(nil), st.groupDeg[d]...), nil
}

// MaxCellEdges returns the largest cell at the level — the group-DP
// sensitivity of the association-count query under the cell model. O(1):
// per-depth maxima are cached when the cell matrices are derived.
func (t *Tree) MaxCellEdges(level int) (int64, error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return 0, err
	}
	return t.maxCells[d], nil
}

// MaxSideGroupIncidentEdges returns the largest incident-edge sum over all
// side groups (both sides) at the level — the sensitivity under the
// node-group model. O(1) and allocation-free: per-depth maxima are cached
// when the degree sums are stored.
func (t *Tree) MaxSideGroupIncidentEdges(level int) (int64, error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return 0, err
	}
	return max(t.left.maxGroupDeg[d], t.right.maxGroupDeg[d]), nil
}

// SidePermutation returns a copy of one side's node permutation
// (position → node id).
func (t *Tree) SidePermutation(side bipartite.Side) ([]int32, error) {
	st, err := t.sideTree(side)
	if err != nil {
		return nil, err
	}
	return append([]int32(nil), st.perm...), nil
}

// SideBounds returns a copy of one side's range boundaries at a level
// (2^depth + 1 positions over the permutation).
func (t *Tree) SideBounds(level int, side bipartite.Side) ([]int32, error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return nil, err
	}
	st, err := t.sideTree(side)
	if err != nil {
		return nil, err
	}
	return append([]int32(nil), st.bounds[d]...), nil
}

// LevelProfile summarizes one level of the tree.
type LevelProfile struct {
	Level         int     `json:"level"`
	NumCells      int     `json:"num_cells"`
	NonEmpty      int     `json:"non_empty"`
	TotalEdges    int64   `json:"total_edges"`
	MaxCellEdges  int64   `json:"max_cell_edges"`
	MeanCellEdges float64 `json:"mean_cell_edges"`
	// Skew is MaxCellEdges divided by the balanced cell size
	// TotalEdges/NumCells; 1.0 means perfectly even cells. Zero when the
	// level holds no records.
	Skew float64 `json:"skew"`
}

// Profile computes the summary of one level.
func (t *Tree) Profile(level int) (LevelProfile, error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return LevelProfile{}, err
	}
	p := LevelProfile{Level: level, NumCells: len(t.cells[d])}
	for _, c := range t.cells[d] {
		p.TotalEdges += c
		if c > 0 {
			p.NonEmpty++
		}
		if c > p.MaxCellEdges {
			p.MaxCellEdges = c
		}
	}
	if p.NumCells > 0 {
		p.MeanCellEdges = float64(p.TotalEdges) / float64(p.NumCells)
	}
	if p.TotalEdges > 0 && p.NumCells > 0 {
		p.Skew = float64(p.MaxCellEdges) / (float64(p.TotalEdges) / float64(p.NumCells))
	}
	return p, nil
}

// Validate checks the structural invariants the rest of the system relies
// on, over what the tree holds:
//
//   - permutations are bijections,
//   - range boundaries are monotone, span the whole side, and every depth
//     refines the previous one,
//   - every depth's degree sums have one entry per range, an empty range
//     sums to zero, every depth's sums refine the one above, the root
//     sums to the record count on both sides, and the cached maxima are
//     right,
//   - the dataset summary counts the permutations' nodes and the records,
//   - the deepest cell matrix's rows and columns sum to the finest
//     groups' degree sums, every coarser matrix equals the 2×2 block
//     aggregation of its child, and the cached maxima match their
//     matrices.
//
// The tree holds no edges and no degrees, so Validate cannot recount
// either: BuildFromEdges cross-checks its two passes against each other
// instead. The checks cost O(n + Σ_d 4^d).
func (t *Tree) Validate() error {
	depths := len(t.left.bounds)
	for _, sd := range []struct {
		name string
		st   *sideTree
	}{{"left", &t.left}, {"right", &t.right}} {
		st := sd.st
		if err := checkPerm(st.perm); err != nil {
			return fmt.Errorf("%w: %s perm: %v", ErrInvalid, sd.name, err)
		}
		n := int32(len(st.perm))
		if len(st.bounds) != depths || len(st.groupDeg) != depths || len(st.maxGroupDeg) != depths {
			return fmt.Errorf("%w: %s side has %d bound depths, %d degree-sum depths and %d cached maxima, want %d each",
				ErrInvalid, sd.name, len(st.bounds), len(st.groupDeg), len(st.maxGroupDeg), depths)
		}
		for d, bounds := range st.bounds {
			if len(bounds) != (1<<d)+1 {
				return fmt.Errorf("%w: %s depth %d has %d boundaries, want %d", ErrInvalid, sd.name, d, len(bounds), (1<<d)+1)
			}
			if bounds[0] != 0 || bounds[len(bounds)-1] != n {
				return fmt.Errorf("%w: %s depth %d boundaries do not span [0,%d]", ErrInvalid, sd.name, d, n)
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] < bounds[i-1] {
					return fmt.Errorf("%w: %s depth %d boundaries decrease at %d", ErrInvalid, sd.name, d, i)
				}
			}
			if d > 0 {
				prev := st.bounds[d-1]
				for i, b := range prev {
					if bounds[2*i] != b {
						return fmt.Errorf("%w: %s depth %d does not refine depth %d at %d", ErrInvalid, sd.name, d, d-1, i)
					}
				}
			}
			sums := st.groupDeg[d]
			if len(sums) != 1<<d {
				return fmt.Errorf("%w: %s depth %d has %d degree sums, want %d", ErrInvalid, sd.name, d, len(sums), 1<<d)
			}
			var max int64
			for i, s := range sums {
				if bounds[i] == bounds[i+1] && s != 0 {
					return fmt.Errorf("%w: %s depth %d range %d is empty but sums to %d", ErrInvalid, sd.name, d, i, s)
				}
				if d > 0 && i%2 == 1 {
					if parent := st.groupDeg[d-1][i/2]; sums[i-1]+s != parent {
						return fmt.Errorf("%w: %s depth %d ranges %d and %d sum to %d, their parent to %d", ErrInvalid, sd.name, d, i-1, i, sums[i-1]+s, parent)
					}
				}
				if s > max {
					max = s
				}
			}
			if st.maxGroupDeg[d] != max {
				return fmt.Errorf("%w: %s depth %d cached degree-sum max %d, sums say %d", ErrInvalid, sd.name, d, st.maxGroupDeg[d], max)
			}
		}
		if root := st.groupDeg[0][0]; root != t.numEdges {
			return fmt.Errorf("%w: %s degrees sum to %d, want %d records", ErrInvalid, sd.name, root, t.numEdges)
		}
	}
	if t.stats.NumLeft != len(t.left.perm) || t.stats.NumRight != len(t.right.perm) || t.stats.NumEdges != t.numEdges {
		return fmt.Errorf("%w: dataset summary counts %d × %d nodes and %d records, the tree %d × %d and %d",
			ErrInvalid, t.stats.NumLeft, t.stats.NumRight, t.stats.NumEdges, len(t.left.perm), len(t.right.perm), t.numEdges)
	}
	if len(t.cells) != depths {
		return fmt.Errorf("%w: %d cell matrices for %d depths", ErrInvalid, len(t.cells), depths)
	}
	for d, cells := range t.cells {
		if len(cells) != 1<<(2*d) {
			return fmt.Errorf("%w: depth %d has %d cells, want %d", ErrInvalid, d, len(cells), 1<<(2*d))
		}
	}
	if err := t.checkGroupSums(t.cells[depths-1]); err != nil {
		return fmt.Errorf("%w: deepest cells: %v", ErrInvalid, err)
	}
	for d := depths - 1; d > 0; d-- {
		want := aggregateCells(t.cells[d], 1<<d)
		for i, c := range want {
			if c != t.cells[d-1][i] {
				return fmt.Errorf("%w: depth %d cell %d stored %d, child blocks sum to %d", ErrInvalid, d-1, i, t.cells[d-1][i], c)
			}
		}
	}
	if len(t.maxCells) != len(t.cells) {
		return fmt.Errorf("%w: %d cached maxima for %d depths", ErrInvalid, len(t.maxCells), len(t.cells))
	}
	for d, cells := range t.cells {
		var max int64
		for _, c := range cells {
			if c > max {
				max = c
			}
		}
		if t.maxCells[d] != max {
			return fmt.Errorf("%w: depth %d cached max %d, cells say %d", ErrInvalid, d, t.maxCells[d], max)
		}
	}
	return nil
}

// checkGroupSums checks that every row of the deepest cell matrix sums to
// its left finest group's degree sum and every column to its right
// group's: the build's cross-check of its two passes, and Validate's tie
// between the cells and the sides.
func (t *Tree) checkGroupSums(deepest []int64) error {
	dmax := len(t.left.groupDeg) - 1
	k := 1 << dmax
	rows, cols := make([]int64, k), make([]int64, k)
	for i := range rows {
		for j, c := range deepest[i*k : (i+1)*k] {
			rows[i] += c
			cols[j] += c
		}
	}
	for _, side := range [...]struct {
		name        string
		cells, want []int64
	}{{"left", rows, t.left.groupDeg[dmax]}, {"right", cols, t.right.groupDeg[dmax]}} {
		for i, want := range side.want {
			if side.cells[i] != want {
				return fmt.Errorf("%s group %d has degree sum %d, its cells hold %d records", side.name, i, want, side.cells[i])
			}
		}
	}
	return nil
}

// checkPerm proves perm is a bijection on [0, len(perm)): every entry in
// range and none seen twice, marked off in a scratch bitmap.
func checkPerm(perm []int32) error {
	seen := make([]uint64, (len(perm)+63)/64)
	for p, node := range perm {
		if node < 0 || int(node) >= len(perm) {
			return fmt.Errorf("perm[%d] = %d out of range", p, node)
		}
		word, bit := node/64, uint64(1)<<(node%64)
		if seen[word]&bit != 0 {
			return fmt.Errorf("node %d appears twice, again at position %d", node, p)
		}
		seen[word] |= bit
	}
	return nil
}
