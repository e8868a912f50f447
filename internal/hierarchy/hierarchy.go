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
// boundaries of the 2^d contiguous ranges over that permutation. The
// permutation is the side's bisector order, fixed before the first cut; a
// split only adds a boundary inside its own range, so deeper levels
// strictly refine shallower ones and all levels share one permutation.
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
// to the returned Tree or is garbage when the call returns, so a Builder
// carries no state — no scratch, no goroutines, no reference to a
// finished build's bisector. It remains as the handle repeated-build
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
// per-range preparation at all. The same prefix sums make
// SideGroupIncidentEdges O(groups) per call. The cut decisions are
// serial, in range order, so randomized bisectors consume their stream
// deterministically. The per-cell record counts are computed once at the
// deepest level in the second pass (edge chunks fanned out across
// Options.Workers goroutines with per-worker count buffers merged at the
// end) and every coarser level is derived by summing 2×2 child blocks
// bottom-up — never by rescanning edges. Workers shards only
// order-independent integer sums, so the built tree is bit-identical for
// every worker count.
package hierarchy

import (
	"errors"
	"fmt"
	"math"
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

// sideTree is the recursive bisection of one node side.
type sideTree struct {
	perm []int32 // position -> node id
	pos  []int32 // node id -> position
	// deg[node] is the node's degree, filled by pass 1 of BuildFromEdges.
	// It is the only per-node input the specialization consumes.
	deg []int64
	// bounds[d] holds the 2^d+1 range boundaries at depth d:
	// range i spans positions [bounds[d][i], bounds[d][i+1]).
	bounds [][]int32
	// degPrefix[p] is the summed degree of perm[0:p]. The permutation is
	// final once the side is ordered, before the first cut, so the array
	// is filled once, by index, and serves both ends of the tree's life:
	// the window degPrefix[lo:hi+1] is the bisector's whole input for
	// range [lo, hi), and any depth's group-incident-edge sums are
	// boundary differences.
	degPrefix []int64
}

// Tree is the built hierarchy: both side trees with their degrees, and
// the cell count matrices of every level. It holds no edges, and it is
// immutable once built.
type Tree struct {
	maxLevel int

	left  sideTree
	right sideTree

	// cells[d] is the row-major (2^d)x(2^d) matrix of per-cell record
	// counts at depth d. Only cells[maxDepth] is counted from edges; every
	// coarser matrix is the 2×2 block aggregation of its child.
	cells [][]int64
	// maxCells[d] caches the largest entry of cells[d], so the cell-model
	// sensitivity — consulted by every Phase-2 release — is O(1) instead
	// of a 4^d scan per query.
	maxCells []int64
	// cells32[d] is the int32 image of cells[d], materialized by setCells
	// for every depth whose largest cell fits int32 (nil otherwise). The
	// Phase-2 add pass reads counts once per release; serving them as
	// 4-byte values halves that pass's memory traffic on the dominant
	// deepest level (2 MB → 1 MB at 4^9 cells), which is where the
	// release spends its bandwidth budget. Coarser depths aggregate
	// larger counts, so the fit is decided per depth, not per tree.
	cells32 [][]int32

	// stats is the dataset summary, computed once per tree from the stored
	// degrees (specialize); DatasetStats serves it.
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
// every specialization round. Cuts consume only the per-node degrees
// captured in the side trees.
func (t *Tree) specialize(opts Options) error {
	t.stats = bipartite.StatsFromDegrees(t.left.deg, t.right.deg)
	// Both sides in bisector order. The order is static and total, so
	// this one arrangement serves every round: each deeper range is a
	// contiguous span of an ordered span.
	t.left.sortByDegree(t.stats.MaxLeftDegree)
	t.right.sortByDegree(t.stats.MaxRightDegree)
	t.left.index()
	t.right.index()
	private := false
	if pc, ok := opts.Bisector.(partition.PrivacyConsumer); ok {
		private = pc.Private()
	}
	for d := 0; d < opts.Rounds; d++ {
		for _, side := range [...]struct {
			name string
			st   *sideTree
		}{{"left", &t.left}, {"right", &t.right}} {
			cuts, err := side.st.splitDepth(d, opts.Bisector)
			if err != nil {
				return fmt.Errorf("hierarchy: splitting %s side at depth %d: %w", side.name, d, err)
			}
			if private {
				t.privateCuts += cuts
			}
		}
	}
	return nil
}

// newSideTree returns the unsplit side over the given per-node degrees.
// Its permutation is unset until sortByDegree arranges it.
func newSideTree(deg []int64) sideTree {
	n := len(deg)
	return sideTree{
		perm:   make([]int32, n),
		pos:    make([]int32, n),
		deg:    deg,
		bounds: [][]int32{{0, int32(n)}},
	}
}

// sortByDegree arranges perm by degree descending, node id breaking ties
// (the bisector order): a stable LSD counting sort of the node ids on the
// 16-bit digits of maxDeg − deg, where maxDeg is the side's largest degree
// (the dataset summary has it). The first pass scatters the nodes in id
// order straight off the degree array, so stability alone leaves equal
// degrees in node order and no digit is spent on the ids; a side whose
// largest degree is under 2^16 — any realistic one — takes that single
// pass, over a histogram of maxDeg+1 counters. Further passes ping-pong
// between perm and pos, which holds no information until index fills it.
func (st *sideTree) sortByDegree(maxDeg int64) {
	src, dst := st.pos, st.perm
	for shift := 0; shift == 0 || maxDeg>>shift > 0; shift += 16 {
		counts := make([]int32, min(maxDeg>>shift, 0xffff)+1)
		for _, d := range st.deg {
			counts[(maxDeg-d)>>shift&0xffff]++
		}
		var sum int32
		for digit, c := range counts {
			counts[digit], sum = sum, sum+c
		}
		if shift == 0 {
			for node, d := range st.deg {
				digit := (maxDeg - d) & 0xffff
				dst[counts[digit]] = int32(node)
				counts[digit]++
			}
		} else {
			for _, node := range src {
				digit := (maxDeg - st.deg[node]) >> shift & 0xffff
				dst[counts[digit]] = node
				counts[digit]++
			}
		}
		src, dst = dst, src
	}
	st.perm, st.pos = src, dst
}

// index derives the inverse permutation and the degree prefix sums from
// perm and deg.
func (st *sideTree) index() {
	st.degPrefix = make([]int64, len(st.perm)+1)
	for p, node := range st.perm {
		st.pos[node] = int32(p)
		st.degPrefix[p+1] = st.degPrefix[p] + st.deg[node]
	}
}

// splitDepth refines every depth-d range of the side into two, appending
// the depth d+1 boundaries, and returns how many cuts the bisector made.
// A range's whole input is its window of the side's degree prefix sums.
// Ranges with fewer than two nodes cannot be cut and keep an empty second
// part. The decisions run serially in range order so randomized bisectors
// consume their stream deterministically.
func (st *sideTree) splitDepth(d int, bisector partition.Bisector) (cuts int, err error) {
	cur := st.bounds[d]
	next := make([]int32, 0, 2*len(cur)-1)
	for i := 0; i+1 < len(cur); i++ {
		lo, hi := cur[i], cur[i+1]
		cut := int(hi - lo)
		if cut >= 2 {
			if cut, err = bisector.Bisect(st.degPrefix[lo : hi+1]); err != nil {
				return 0, fmt.Errorf("range %d [%d,%d): %w", i, lo, hi, err)
			}
			cuts++
		}
		next = append(next, lo, lo+int32(cut))
	}
	st.bounds = append(st.bounds, append(next, cur[len(cur)-1]))
	return cuts, nil
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
	t.cells32 = make([][]int32, depths)
	for d, cells := range t.cells {
		var max int64
		for _, c := range cells {
			if c > max {
				max = c
			}
		}
		t.maxCells[d] = max
		if max <= math.MaxInt32 {
			narrow := make([]int32, len(cells))
			for i, c := range cells {
				narrow[i] = int32(c)
			}
			t.cells32[d] = narrow
		}
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

// groupOfNode expands the depth-d range boundaries into a node-id →
// range-index lookup.
func (st *sideTree) groupOfNode(d int) []int32 {
	idx := make([]int32, len(st.perm))
	bounds := st.bounds[d]
	for i := 0; i < len(bounds)-1; i++ {
		for p := bounds[i]; p < bounds[i+1]; p++ {
			idx[st.perm[p]] = int32(i)
		}
	}
	return idx
}

// NumEdges returns the total number of association records the tree was
// built over.
func (t *Tree) NumEdges() int64 { return t.left.degPrefix[len(t.left.degPrefix)-1] }

// DatasetStats summarizes the dataset from the per-node degrees captured
// at build time. The summary is computed once per build and every call
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

// LevelCellCounts returns a copy of the row-major cell count matrix at the
// level.
func (t *Tree) LevelCellCounts(level int) ([]int64, error) {
	counts, err := t.LevelCellCountsView(level)
	if err != nil {
		return nil, err
	}
	return append([]int64(nil), counts...), nil
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

// LevelCellCounts32View returns the level's row-major cell count matrix
// as int32 values, without copying, when every count at the level fits
// — the narrow image finalize materializes so the Phase-2 add pass can
// read 4-byte counts and halve its memory traffic. It returns (nil,
// false) when the level's largest cell exceeds int32 (the release falls
// back to the int64 view); like LevelCellCountsView, the slice is
// internal storage and must be treated as read-only. The level must be
// valid: callers resolve it through LevelCellCountsView (or another
// level-checked accessor) first.
func (t *Tree) LevelCellCounts32View(level int) ([]int32, bool) {
	d, err := t.DepthOfLevel(level)
	if err != nil || t.cells32[d] == nil {
		return nil, false
	}
	return t.cells32[d], true
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
// group weight). Each group is one degree-prefix-sum difference, so a call
// costs O(groups), not O(nodes).
func (t *Tree) SideGroupIncidentEdges(level int, side bipartite.Side) ([]int64, error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return nil, err
	}
	st, err := t.sideTree(side)
	if err != nil {
		return nil, err
	}
	return st.groupDegrees(d), nil
}

// groupDegrees returns the summed degree of every depth-d range: one
// degree-prefix-sum difference each.
func (st *sideTree) groupDegrees(d int) []int64 {
	bounds := st.bounds[d]
	out := make([]int64, len(bounds)-1)
	for i := range out {
		out[i] = st.degPrefix[bounds[i+1]] - st.degPrefix[bounds[i]]
	}
	return out
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
// node-group model. O(groups) via the degree prefix sums.
func (t *Tree) MaxSideGroupIncidentEdges(level int) (int64, error) {
	var max int64
	for _, side := range []bipartite.Side{bipartite.Left, bipartite.Right} {
		sums, err := t.SideGroupIncidentEdges(level, side)
		if err != nil {
			return 0, err
		}
		for _, s := range sums {
			if s > max {
				max = s
			}
		}
	}
	return max, nil
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
// on:
//
//   - permutations are bijections and pos arrays their inverses,
//   - range boundaries are monotone, span the whole side, and every depth
//     refines the previous one,
//   - the deepest cell matrix sums to the total record count, and every
//     coarser matrix equals the 2×2 block aggregation of its child,
//   - the degree prefix sums are monotone and end at the record count,
//     and the stored dataset summary equals a fresh one from the degrees.
//
// The tree holds no edges, so Validate cannot recount cells from them:
// BuildFromEdges cross-checks its two passes against each other instead.
// The cell checks cost O(Σ_d 4^d).
func (t *Tree) Validate() error {
	if err := checkPerm(t.left.perm, t.left.pos); err != nil {
		return fmt.Errorf("%w: left perm: %v", ErrInvalid, err)
	}
	if err := checkPerm(t.right.perm, t.right.pos); err != nil {
		return fmt.Errorf("%w: right perm: %v", ErrInvalid, err)
	}
	var total int64
	for _, d := range t.left.deg {
		total += d
	}
	for _, sd := range []struct {
		name string
		st   *sideTree
	}{{"left", &t.left}, {"right", &t.right}} {
		st := sd.st
		n := int32(len(st.perm))
		if len(st.deg) != int(n) {
			return fmt.Errorf("%w: %s has %d stored degrees for %d nodes", ErrInvalid, sd.name, len(st.deg), n)
		}
		for d, bounds := range st.bounds {
			if len(bounds) != (1<<d)+1 {
				return fmt.Errorf("%w: depth %d has %d boundaries, want %d", ErrInvalid, d, len(bounds), (1<<d)+1)
			}
			if bounds[0] != 0 || bounds[len(bounds)-1] != n {
				return fmt.Errorf("%w: depth %d boundaries do not span [0,%d]", ErrInvalid, d, n)
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] < bounds[i-1] {
					return fmt.Errorf("%w: depth %d boundaries decrease at %d", ErrInvalid, d, i)
				}
			}
			if d > 0 {
				prev := st.bounds[d-1]
				for i, b := range prev {
					if bounds[2*i] != b {
						return fmt.Errorf("%w: depth %d does not refine depth %d at %d", ErrInvalid, d, d-1, i)
					}
				}
			}
		}
		if len(st.degPrefix) != int(n)+1 {
			return fmt.Errorf("%w: %s degree prefix has %d entries, want %d", ErrInvalid, sd.name, len(st.degPrefix), n+1)
		}
		for p, node := range st.perm {
			if st.degPrefix[p+1]-st.degPrefix[p] != st.deg[node] {
				return fmt.Errorf("%w: %s degree prefix wrong at position %d", ErrInvalid, sd.name, p)
			}
		}
		if st.degPrefix[n] != total {
			return fmt.Errorf("%w: %s degree prefix sums to %d, want %d", ErrInvalid, sd.name, st.degPrefix[n], total)
		}
	}
	if want := bipartite.StatsFromDegrees(t.left.deg, t.right.deg); t.stats != want {
		return fmt.Errorf("%w: stored dataset summary %+v, degrees say %+v", ErrInvalid, t.stats, want)
	}
	if len(t.cells) != len(t.left.bounds) {
		return fmt.Errorf("%w: %d cell matrices for %d depths", ErrInvalid, len(t.cells), len(t.left.bounds))
	}
	dmax := len(t.cells) - 1
	var sum int64
	for _, c := range t.cells[dmax] {
		sum += c
	}
	if sum != total {
		return fmt.Errorf("%w: depth %d cells sum to %d, want %d", ErrInvalid, dmax, sum, total)
	}
	for d := dmax; d > 0; d-- {
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
	if len(t.cells32) != len(t.cells) {
		return fmt.Errorf("%w: %d narrow matrices for %d depths", ErrInvalid, len(t.cells32), len(t.cells))
	}
	for d, narrow := range t.cells32 {
		if narrow == nil {
			if t.maxCells[d] <= math.MaxInt32 {
				return fmt.Errorf("%w: depth %d max %d fits int32 but narrow matrix is missing", ErrInvalid, d, t.maxCells[d])
			}
			continue
		}
		if len(narrow) != len(t.cells[d]) {
			return fmt.Errorf("%w: depth %d narrow matrix has %d cells, wide has %d", ErrInvalid, d, len(narrow), len(t.cells[d]))
		}
		for i, c := range narrow {
			if int64(c) != t.cells[d][i] {
				return fmt.Errorf("%w: depth %d cell %d narrow %d, wide %d", ErrInvalid, d, i, c, t.cells[d][i])
			}
		}
	}
	return nil
}

func checkPerm(perm, pos []int32) error {
	if len(perm) != len(pos) {
		return errors.New("perm and pos lengths differ")
	}
	for p, node := range perm {
		if node < 0 || int(node) >= len(perm) {
			return fmt.Errorf("perm[%d] = %d out of range", p, node)
		}
		if pos[node] != int32(p) {
			return fmt.Errorf("pos[%d] = %d, want %d", node, pos[node], p)
		}
	}
	return nil
}
