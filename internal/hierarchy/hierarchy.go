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
// Two group semantics are derived from the side trees (DESIGN.md §2):
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
// boundaries of the 2^d contiguous ranges over that permutation. Splits
// reorder nodes only inside their own range, so deeper levels strictly
// refine shallower ones and all levels share one permutation.
//
// # Builder reuse
//
// Build allocates position-indexed scratch (items, weights, radix keys)
// and, when Options.Workers > 1, a worker pool — costs that repeated-
// trial experiments pay per build. A Builder retains both across builds:
// construct once with NewBuilder, call Builder.Build per trial (buffers
// grow to the largest side seen and stay), and Close when done. Build
// itself is a thin wrapper that creates and closes a throwaway Builder,
// and a reused Builder produces trees bit-identical to fresh Build calls
// (pinned by TestBuilderReuseMatchesFreshBuild). A Builder is NOT safe
// for concurrent use; fan trial parallelism out with one Builder per
// goroutine.
//
// # Complexity and parallelism
//
// Build runs in O(E + n·log n + n·rounds + Σ_d 4^d) time: the per-cell
// record counts are computed once at the deepest level in a single scan
// of the edge array (zero-callback CSR view, sharded across
// Options.Workers goroutines with per-worker count buffers merged at the
// end) and every coarser level is derived by summing 2×2 child blocks
// bottom-up — never by rescanning edges. The bisector ordering is a
// static total order (degree descending, node id ascending), so each side
// is sorted once in the first round and every deeper range — a contiguous
// span of a sorted span — needs no further preparation: its weights are
// read straight from a position-indexed weight array maintained alongside
// the permutation. Per-side degree prefix sums over the final permutation
// make SideGroupIncidentEdges O(groups) per call. Range preparation, when
// it does run, reuses two position-indexed scratch buffers for the whole
// build and fans out over one worker pool that stays alive across all
// rounds; only the cut decisions are serial, in range order, so
// randomized bisectors consume their stream deterministically and the
// built tree is bit-identical for every worker count.
package hierarchy

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

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

// minShardEdges is the edge count below which sharding the cell scan is
// not worth the goroutine handoff.
const minShardEdges = 1 << 14

// Order controls how a range's nodes are arranged before the bisector
// chooses a prefix cut.
type Order int

// Orderings. OrderWeightDesc sorts nodes by degree descending with a
// deterministic tie-break on node id, which lets balance-seeking bisectors
// find good cuts; OrderNatural keeps the current permutation order.
const (
	OrderWeightDesc Order = iota + 1
	OrderNatural
)

// Valid reports whether o is a known ordering.
func (o Order) Valid() bool { return o == OrderWeightDesc || o == OrderNatural }

// OrderKeys is an explicit static ordering over both node sides: node n
// of a side sorts by its key ascending (node id breaks ties), replacing
// the Order-based arrangement for every range of every round. Keys let
// partitioners impose externally computed structure — a community
// assignment, say — on the contiguous ranges the bisector cuts. The
// slices must be indexed by node id and match the side sizes; they are
// read during the build and must not be mutated concurrently.
type OrderKeys struct {
	Left  []uint64
	Right []uint64
}

// Options configures Build.
type Options struct {
	// Rounds is the number of specialization rounds; the resulting tree
	// has Rounds+1 levels with the root at level Rounds. Must be in
	// [1, MaxRounds].
	Rounds int
	// Bisector chooses every cut. Required.
	Bisector partition.Bisector
	// Order arranges range nodes before cutting; defaults to
	// OrderWeightDesc.
	Order Order
	// Keys, when non-nil, overrides Order with an explicit per-node
	// static ordering (see OrderKeys).
	Keys *OrderKeys
	// Workers parallelizes the per-range weight computation and ordering,
	// and shards the deepest-level cell scan, across goroutines. Cut
	// decisions remain serial in range order, so the built tree is
	// identical for any worker count. Values < 2 run single-threaded.
	Workers int
}

// Errors returned by Build and the accessors.
var (
	ErrNilGraph    = errors.New("hierarchy: nil graph")
	ErrNilBisector = errors.New("hierarchy: nil bisector")
	ErrBadRounds   = errors.New("hierarchy: rounds must be in [1, 12]")
	ErrBadLevel    = errors.New("hierarchy: level out of range")
	ErrBadKeys     = errors.New("hierarchy: ordering keys do not match side sizes")
	ErrInvalid     = errors.New("hierarchy: invalid tree")
)

// sideTree is the recursive bisection of one node side.
type sideTree struct {
	perm []int32 // position -> node id
	pos  []int32 // node id -> position
	// deg[node] is the node's degree. It is the only per-node input the
	// specialization consumes, which is what lets the streamed build run
	// without a Graph: pass 1 of BuildFromEdges fills it from edge chunks,
	// the graph path copies it out of the CSR offsets.
	deg []int64
	// bounds[d] holds the 2^d+1 range boundaries at depth d:
	// range i spans positions [bounds[d][i], bounds[d][i+1]).
	bounds [][]int32
	// weightByPos[p] is the degree of perm[p], maintained alongside every
	// permutation write so range weights never need a fresh lookup pass.
	weightByPos []int64
	// inOrder records that every current range already sits in bisector
	// order. Ordering is a static total order (degree desc, node asc — or
	// key asc when orderKeys is set), so once one specialization round
	// has sorted the side, every deeper range is a contiguous span of a
	// sorted span and stays sorted; from then on splitting skips
	// preparation entirely.
	inOrder bool
	// orderKeys, when non-nil, is the per-node key array of an explicit
	// static ordering (Options.Keys); ranges sort by key ascending
	// instead of by weight.
	orderKeys []uint64
	// degPrefix[p] is the summed degree of perm[0:p] under the final
	// permutation, so any depth's group-incident-edge sums are boundary
	// differences. Filled by finalize.
	degPrefix []int64
}

// Tree is the built hierarchy. It is immutable after Build.
type Tree struct {
	// graph is the backing graph for in-memory builds and decoded trees;
	// it is nil for trees built through BuildFromEdges, whose accessors
	// all run off the side trees' degree and cell state instead.
	graph    *bipartite.Graph
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
	// cells32[d] is the int32 image of cells[d], materialized at finalize
	// for every depth whose largest cell fits int32 (nil otherwise). The
	// Phase-2 add pass reads counts once per release; serving them as
	// 4-byte values halves that pass's memory traffic on the dominant
	// deepest level (2 MB → 1 MB at 4^9 cells), which is where the
	// release spends its bandwidth budget. Coarser depths aggregate
	// larger counts, so the fit is decided per depth, not per tree.
	cells32 [][]int32

	// stats is the dataset summary, computed once by finishSides from the
	// stored degrees; DatasetStats serves it.
	stats bipartite.Stats

	privateCuts int
}

// Build runs Phase-1 specialization and returns the tree. It is a thin
// wrapper over a throwaway Builder; repeated-build callers (experiment
// trials, pipelines rerun on many graphs) should hold a Builder instead
// so the scratch buffers and worker pool survive between builds.
func Build(g *bipartite.Graph, opts Options) (*Tree, error) {
	b := NewBuilder()
	defer b.Close()
	return b.Build(g, opts)
}

// Builder runs specialization builds while retaining the position-indexed
// scratch buffers and the worker pool across calls, so repeated builds
// (one per experiment trial) stop paying per-build allocation and
// goroutine startup. The zero value is not usable; construct with
// NewBuilder and Close when done to release the pool's goroutines.
//
// A Builder is NOT safe for concurrent use: give each trial-fanning
// goroutine its own Builder. Trees built through a reused Builder are
// bit-identical to ones from fresh Build calls.
type Builder struct {
	// Retained across builds: two position-indexed scratch buffers (the
	// ranges of any one depth are disjoint [lo, hi) position spans, so
	// concurrent workers write disjoint subslices without
	// synchronization), the radix-sort key buffers, and the worker pool.
	items   []rangeItem // node+weight per position of the side being split
	weights []int64     // weights in prepared order, the bisector's input
	keys    []uint64    // radix-sort keys, position-indexed like items
	tmpKeys []uint64    // radix-sort ping-pong buffer

	pool        *workerPool
	poolWorkers int

	// Per-build state, reset by begin. The build's Options are not part
	// of it: a retained Builder (a serving ingest lane) outlives the build
	// and must not pin the caller's bisector — an ExpMechBisector holds
	// two O(n) float scratch slices — or ordering keys, so the bisector
	// travels down the split calls as a parameter.
	private bool        // Bisector spends budget per cut (partition.PrivacyConsumer)
	curPool *workerPool // pool for the current build; nil when Workers < 2
}

// NewBuilder returns an empty Builder; the first Build sizes its scratch.
func NewBuilder() *Builder { return &Builder{} }

// Close releases the retained worker pool's goroutines. The Builder
// remains usable: a later Build recreates the pool on demand.
func (b *Builder) Close() {
	if b.pool != nil {
		b.pool.close()
		b.pool = nil
		b.poolWorkers = 0
	}
}

// normalizeOptions validates opts and fills defaults; shared by the graph
// and streamed build entry points.
func normalizeOptions(opts *Options) error {
	if opts.Bisector == nil {
		return ErrNilBisector
	}
	if opts.Rounds < 1 || opts.Rounds > MaxRounds {
		return fmt.Errorf("%w (got %d)", ErrBadRounds, opts.Rounds)
	}
	if opts.Order == 0 {
		opts.Order = OrderWeightDesc
	}
	if !opts.Order.Valid() {
		return fmt.Errorf("hierarchy: unknown order %d", opts.Order)
	}
	return nil
}

// Build runs Phase-1 specialization and returns the tree, reusing the
// Builder's scratch and pool from previous calls.
func (b *Builder) Build(g *bipartite.Graph, opts Options) (*Tree, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if err := normalizeOptions(&opts); err != nil {
		return nil, err
	}

	t := &Tree{
		graph:    g,
		maxLevel: opts.Rounds,
		left:     newSideTree(g.NumLeft()),
		right:    newSideTree(g.NumRight()),
	}
	t.left.deg = g.Degrees(bipartite.Left)
	t.right.deg = g.Degrees(bipartite.Right)
	t.left.initWeights(opts.Order)
	t.right.initWeights(opts.Order)
	if err := t.applyOrderKeys(opts.Keys); err != nil {
		return nil, err
	}
	if err := b.runSplits(t, opts); err != nil {
		return nil, err
	}
	t.finalize(opts.Workers)
	return t, nil
}

// runSplits executes every specialization round — the part of a build that
// is identical whether the edges live in a Graph or behind an EdgeSource,
// because cuts consume only the per-node degrees captured in the side
// trees.
func (b *Builder) runSplits(t *Tree, opts Options) error {
	b.begin(t, opts)
	for d := 0; d < opts.Rounds; d++ {
		if err := t.splitDepth(&t.left, d, opts.Bisector, b); err != nil {
			return fmt.Errorf("hierarchy: splitting left side at depth %d: %w", d, err)
		}
		if err := t.splitDepth(&t.right, d, opts.Bisector, b); err != nil {
			return fmt.Errorf("hierarchy: splitting right side at depth %d: %w", d, err)
		}
	}
	return nil
}

// begin readies the Builder for one build: grows the scratch to the
// larger side, resolves the privacy-consumer flag, and selects the pool
// (recreated only when the requested worker count changed).
func (b *Builder) begin(t *Tree, opts Options) {
	n := len(t.left.perm)
	if r := len(t.right.perm); r > n {
		n = r
	}
	if n > len(b.items) {
		b.items = make([]rangeItem, n)
		b.weights = make([]int64, n)
		b.keys = make([]uint64, n)
		b.tmpKeys = make([]uint64, n)
	}
	b.private = false
	if pc, ok := opts.Bisector.(partition.PrivacyConsumer); ok {
		b.private = pc.Private()
	}
	b.curPool = nil
	if opts.Workers > 1 {
		if b.pool == nil || b.poolWorkers != opts.Workers {
			if b.pool != nil {
				b.pool.close()
			}
			b.pool = newWorkerPool(opts.Workers)
			b.poolWorkers = opts.Workers
		}
		b.curPool = b.pool
	}
}

func newSideTree(n int) sideTree {
	st := sideTree{
		perm:   make([]int32, n),
		pos:    make([]int32, n),
		bounds: [][]int32{{0, int32(n)}},
	}
	for i := 0; i < n; i++ {
		st.perm[i] = int32(i)
		st.pos[i] = int32(i)
	}
	return st
}

// initWeights fills weightByPos from st.deg for the initial identity
// permutation. OrderNatural keeps permutation order, so the side starts in
// bisector order; OrderWeightDesc needs one sorting pass first.
func (st *sideTree) initWeights(order Order) {
	st.weightByPos = make([]int64, len(st.perm))
	for p, node := range st.perm {
		st.weightByPos[p] = st.deg[node]
	}
	st.inOrder = order == OrderNatural
}

// setOrderKeys installs an explicit static ordering for the side: the
// first split round sorts every range by key ascending, after which the
// usual sorted-span invariant holds.
func (st *sideTree) setOrderKeys(keys []uint64) error {
	if len(keys) != len(st.perm) {
		return fmt.Errorf("%w: got %d keys for a %d-node side", ErrBadKeys, len(keys), len(st.perm))
	}
	st.orderKeys = keys
	st.inOrder = false
	return nil
}

// applyOrderKeys wires Options.Keys into both sides; shared by the graph
// and streamed builds.
func (t *Tree) applyOrderKeys(keys *OrderKeys) error {
	if keys == nil {
		return nil
	}
	if err := t.left.setOrderKeys(keys.Left); err != nil {
		return fmt.Errorf("left side: %w", err)
	}
	if err := t.right.setOrderKeys(keys.Right); err != nil {
		return fmt.Errorf("right side: %w", err)
	}
	return nil
}

// rangeItem pairs a node with its weight during range preparation.
type rangeItem struct {
	node   int32
	weight int64
}

// compareItems orders by weight descending with a deterministic node-id
// tie-break: a total order, so any (unstable) sort yields the same
// permutation.
func compareItems(a, b rangeItem) int {
	switch {
	case a.weight > b.weight:
		return -1
	case a.weight < b.weight:
		return 1
	default:
		return int(a.node) - int(b.node)
	}
}

// workerPool is a fixed set of goroutines that processes integer-indexed
// task batches. One pool serves every split round of a Build, so range
// preparation spawns goroutines once, not per depth. (The final cell
// scan manages its own short-lived goroutines instead: finalize also
// runs for decoded trees, which never have a pool.)
type workerPool struct {
	tasks chan int
	wg    sync.WaitGroup
	run   func(int)
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{tasks: make(chan int, 4*workers)}
	for w := 0; w < workers; w++ {
		go func() {
			for i := range p.tasks {
				p.run(i)
				p.wg.Done()
			}
		}()
	}
	return p
}

// dispatch runs run(0..n-1) across the pool and returns when all calls
// completed. It must not be called concurrently with itself: the previous
// batch's wg.Wait orders all worker reads of p.run before the next write.
func (p *workerPool) dispatch(n int, run func(int)) {
	p.run = run
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		p.tasks <- i
	}
	p.wg.Wait()
}

func (p *workerPool) close() { close(p.tasks) }

// splitDepth refines every depth-d range of one side into two, appending
// the depth d+1 boundaries. On an unordered side, preparation (weight
// lookup and ordering) is pure per range and fans out across the pool;
// once the side is in bisector order — after the first OrderWeightDesc
// round, or from the start for OrderNatural — preparation vanishes and
// each range's weights are read straight from weightByPos. The cut
// decisions always run serially in range order so randomized bisectors
// consume their stream deterministically.
func (t *Tree) splitDepth(st *sideTree, d int, bisector partition.Bisector, bs *Builder) error {
	cur := st.bounds[d]
	nRanges := len(cur) - 1

	reorder := !st.inOrder
	if reorder {
		if bs.curPool != nil && nRanges > 1 {
			bs.curPool.dispatch(nRanges, func(i int) {
				t.prepareRange(st, cur[i], cur[i+1], bs)
			})
		} else {
			for i := 0; i < nRanges; i++ {
				t.prepareRange(st, cur[i], cur[i+1], bs)
			}
		}
	}

	next := make([]int32, 0, 2*nRanges+1)
	for i := 0; i < nRanges; i++ {
		lo, hi := cur[i], cur[i+1]
		cut, err := t.applyCut(st, lo, hi, reorder, bisector, bs)
		if err != nil {
			return fmt.Errorf("range %d [%d,%d): %w", i, lo, hi, err)
		}
		next = append(next, lo, lo+int32(cut))
	}
	next = append(next, cur[nRanges])
	st.bounds = append(st.bounds, next)
	// Ordering is a static total order over nodes, so the freshly written
	// (or verified) ranges and every contiguous subrange of them remain in
	// order for all deeper rounds.
	st.inOrder = true
	return nil
}

// radixMinLen is the range size below which the comparison sort beats the
// radix sort's fixed bucket overhead.
const radixMinLen = 128

// prepareRange sorts the items of [lo, hi) into the shared scratch. It
// reads only immutable state (graph degrees, the current permutation
// span) and writes only its own position span, so disjoint ranges prepare
// concurrently. Large ranges with 32-bit weight spread take an LSD radix
// sort over a packed (weight desc, node asc) key — the same total order
// compareItems defines, so the result is identical.
func (t *Tree) prepareRange(st *sideTree, lo, hi int32, bs *Builder) {
	if hi <= lo {
		return
	}
	items := bs.items[lo:hi]
	var maxWeight int64
	for i := range items {
		p := lo + int32(i)
		w := st.weightByPos[p]
		items[i] = rangeItem{node: st.perm[p], weight: w}
		if w > maxWeight {
			maxWeight = w
		}
	}
	if keys := st.orderKeys; keys != nil {
		// An explicit static ordering: key ascending, node id tie-break
		// (the same shape of total order, so the sorted-span invariant
		// holds for deeper rounds). Arbitrary 64-bit keys skip the radix
		// path, which packs weights into 32 bits.
		slices.SortFunc(items, func(a, b rangeItem) int {
			ka, kb := keys[a.node], keys[b.node]
			switch {
			case ka < kb:
				return -1
			case ka > kb:
				return 1
			default:
				return int(a.node) - int(b.node)
			}
		})
	} else if len(items) >= radixMinLen && maxWeight < 1<<31 {
		radixSortItems(items, bs.keys[lo:hi], bs.tmpKeys[lo:hi], maxWeight)
	} else {
		slices.SortFunc(items, compareItems)
	}
	weights := bs.weights[lo:hi]
	for i := range items {
		weights[i] = items[i].weight
	}
}

// radixSortItems sorts items by (weight desc, node asc) via an LSD radix
// sort on the packed 64-bit key (maxWeight−weight)<<32 | node, whose
// ascending order is exactly compareItems' total order. Digit histograms
// are gathered in one pass and passes whose digit is constant across all
// keys are skipped. keys and tmp are caller scratch of len(items).
//
// Ascending-input shortcut: when the span arrives in strictly ascending
// node order — the identity permutation every side starts from, so always
// in the one round that sorts — the four node digits are skipped
// outright. An LSD radix sort is stable, so sorting node-ascending input
// by the weight digits alone leaves equal weights in node order, which is
// the (weight desc, node asc) order; a typical degree distribution then
// costs two or three scatter passes instead of six or seven. Any other
// input order takes all eight digits.
func radixSortItems(items []rangeItem, keys, tmp []uint64, maxWeight int64) {
	firstDigit := 4 // the weight digits; lowered to 0 unless nodes ascend
	prev := int32(-1)
	for i, it := range items {
		keys[i] = uint64(maxWeight-it.weight)<<32 | uint64(uint32(it.node))
		if it.node <= prev {
			firstDigit = 0
		}
		prev = it.node
	}
	// Key weights are at most maxWeight, so digits past its top byte are
	// zero in every key and need neither counting nor a pass.
	endDigit := 4 + (bits.Len64(uint64(maxWeight))+7)/8
	var counts [8][256]int32
	for _, k := range keys {
		for b := firstDigit; b < endDigit; b++ {
			counts[b][(k>>(8*b))&0xff]++
		}
	}
	n := int32(len(keys))
	src, dst := keys, tmp
	for b := firstDigit; b < endDigit; b++ {
		c := &counts[b]
		if c[(src[0]>>(8*b))&0xff] == n {
			continue // every key shares this digit
		}
		var sum int32
		for d := 0; d < 256; d++ {
			c[d], sum = sum, sum+c[d]
		}
		for _, k := range src {
			d := (k >> (8 * b)) & 0xff
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	for i, k := range src {
		items[i] = rangeItem{node: int32(uint32(k)), weight: maxWeight - int64(k>>32)}
	}
}

// applyCut asks the bisector for a cut over the range's ordered weights
// and, when the range was freshly prepared, writes the order back into
// the permutation. Ranges with fewer than two nodes return their size (an
// empty second part).
func (t *Tree) applyCut(st *sideTree, lo, hi int32, reorder bool, bisector partition.Bisector, bs *Builder) (int, error) {
	n := int(hi - lo)
	if n < 2 {
		// 0- and 1-item ranges cannot be cut; a 1-item "sort" is already
		// the identity, so there is nothing to write back either.
		return n, nil
	}
	weights := st.weightByPos[lo:hi]
	if reorder {
		weights = bs.weights[lo:hi]
	}
	cut, err := bisector.Bisect(weights)
	if err != nil {
		return 0, err
	}
	if bs.private {
		t.privateCuts++
	}
	if reorder {
		for i, it := range bs.items[lo:hi] {
			p := lo + int32(i)
			st.perm[p] = it.node
			st.pos[it.node] = p
			st.weightByPos[p] = it.weight
		}
	}
	return cut, nil
}

// finalize derives everything Build's accessors serve: the deepest cell
// matrix from one sharded edge scan, every coarser matrix by 2×2 block
// aggregation, and the per-side degree prefix sums. DecodeBinary calls it
// too, so decoded trees answer queries through the same fast paths. The
// streamed build runs finalizeFromSource instead, which computes the same
// state from edge chunks.
func (t *Tree) finalize(workers int) {
	t.computeCells(workers)
	t.finishSides()
}

// finishSides derives what the accessors serve from the per-node degrees
// under the final permutation: the per-side degree prefix sums and the
// dataset summary. Every build path ends here, so the summary is computed
// exactly once per tree.
func (t *Tree) finishSides() {
	t.left.computeDegreePrefix()
	t.right.computeDegreePrefix()
	t.stats = bipartite.StatsFromDegrees(t.left.deg, t.right.deg)
}

// computeCells fills the per-depth cell count matrices: one edge scan at
// the deepest level, then bottom-up aggregation. Total work is
// O(E + Σ_d 4^d) regardless of depth count.
func (t *Tree) computeCells(workers int) {
	dmax := len(t.left.bounds) - 1
	k := 1 << dmax
	leftGroup := t.left.groupOfNode(dmax)
	rightGroup := t.right.groupOfNode(dmax)
	t.setCells(t.scanCells(k, leftGroup, rightGroup, workers))
}

// setCells installs the deepest-level cell matrix and derives every
// coarser matrix plus the per-depth maxima from it — the aggregation tail
// shared by the graph scan and the streamed scan.
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

// scanCells counts edges into a k×k matrix using the zero-callback CSR
// view, sharded over contiguous edge spans when workers and the matrix
// size allow; per-worker buffers are merged at the end so no shard ever
// touches another's counts. Sharding only engages when the edge scan
// dominates: allocating and merging shards·k² counters must cost less
// than the scan it parallelizes, so sparse-but-deep levels stay serial.
func (t *Tree) scanCells(k int, leftGroup, rightGroup []int32, workers int) []int64 {
	counts := make([]int64, k*k)
	off, adj := t.graph.AdjacencyView(bipartite.Left)
	numEdges := int64(len(adj))
	shards := workers
	shardCells := int64(shards) * int64(k) * int64(k)
	if shards < 2 || numEdges < minShardEdges || shardCells > maxShardCells || shardCells > numEdges {
		countEdgeSpan(counts, off, adj, 0, numEdges, leftGroup, rightGroup, k)
		return counts
	}
	parts := make([][]int64, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo := numEdges * int64(s) / int64(shards)
		hi := numEdges * int64(s+1) / int64(shards)
		parts[s] = make([]int64, k*k)
		wg.Add(1)
		go func(buf []int64, lo, hi int64) {
			defer wg.Done()
			countEdgeSpan(buf, off, adj, lo, hi, leftGroup, rightGroup, k)
		}(parts[s], lo, hi)
	}
	wg.Wait()
	for _, part := range parts {
		for i, c := range part {
			counts[i] += c
		}
	}
	return counts
}

// countEdgeSpan counts edges [lo, hi) of the left-major edge array into
// counts. The owning left node of edge lo is found by binary search, then
// the scan is a straight walk over the adjacency slice.
func countEdgeSpan(counts []int64, off []int64, adj []int32, lo, hi int64, leftGroup, rightGroup []int32, k int) {
	if lo >= hi {
		return
	}
	l := sort.Search(len(off)-1, func(i int) bool { return off[i+1] > lo })
	for e := lo; e < hi; e++ {
		for e >= off[l+1] {
			l++
		}
		counts[int(leftGroup[l])*k+int(rightGroup[adj[e]])]++
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

// computeDegreePrefix fills degPrefix over the final permutation from the
// stored per-node degrees.
func (st *sideTree) computeDegreePrefix() {
	st.degPrefix = make([]int64, len(st.perm)+1)
	for p, node := range st.perm {
		st.degPrefix[p+1] = st.degPrefix[p] + st.deg[node]
	}
}

// Graph returns the underlying graph, or nil for a tree built through
// BuildFromEdges — streamed builds never materialize one. Every other
// accessor (counts, sensitivities, stats) works identically either way.
func (t *Tree) Graph() *bipartite.Graph { return t.graph }

// NumEdges returns the total number of association records the tree was
// built over, available whether or not a Graph backs the tree.
func (t *Tree) NumEdges() int64 { return t.left.degPrefix[len(t.left.degPrefix)-1] }

// DatasetStats summarizes the dataset from the per-node degrees captured
// at build time. The summary is computed once at build (graph build,
// streamed build and DecodeBinary alike) and every call returns that
// stored value: O(1), no allocation. For graph-backed trees it equals
// bipartite.ComputeStats(t.Graph()) bit for bit; for streamed trees it is
// the only dataset summary available.
func (t *Tree) DatasetStats() bipartite.Stats { return t.stats }

// MaxLevel returns the root's level number.
func (t *Tree) MaxLevel() int { return t.maxLevel }

// NumPrivateCuts returns how many budget-consuming cuts Build made (the
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

// CellEdges returns the record count of cell (i, j) at the level.
func (t *Tree) CellEdges(level, i, j int) (int64, error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return 0, err
	}
	k := 1 << d
	if i < 0 || i >= k || j < 0 || j >= k {
		return 0, fmt.Errorf("hierarchy: cell (%d,%d) outside %dx%d grid", i, j, k, k)
	}
	return t.cells[d][i*k+j], nil
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
// after Build): callers must treat it as read-only. The zero-allocation
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

// CellOfEdge returns the cell coordinates containing association (l, r) at
// the level.
func (t *Tree) CellOfEdge(level int, l, r int32) (i, j int, err error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return 0, 0, err
	}
	if l < 0 || int(l) >= len(t.left.pos) || r < 0 || int(r) >= len(t.right.pos) {
		return 0, 0, fmt.Errorf("hierarchy: edge (%d,%d) out of range", l, r)
	}
	return findRange(t.left.bounds[d], t.left.pos[l]), findRange(t.right.bounds[d], t.right.pos[r]), nil
}

// findRange locates the range containing position p via binary search over
// the boundary array.
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

// SideGroupOfNode returns the index of the side group containing the node
// at the level.
func (t *Tree) SideGroupOfNode(level int, side bipartite.Side, node int32) (int, error) {
	d, err := t.DepthOfLevel(level)
	if err != nil {
		return 0, err
	}
	st, err := t.sideTree(side)
	if err != nil {
		return 0, err
	}
	if node < 0 || int(node) >= len(st.pos) {
		return 0, fmt.Errorf("hierarchy: node %d out of range", node)
	}
	return findRange(st.bounds[d], st.pos[node]), nil
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
	bounds := st.bounds[d]
	out := make([]int64, len(bounds)-1)
	for i := range out {
		out[i] = st.degPrefix[bounds[i+1]] - st.degPrefix[bounds[i]]
	}
	return out, nil
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

// SensitivityProfile returns the cell-model sensitivity for every level
// from the root down; index i holds level MaxLevel−i.
func (t *Tree) SensitivityProfile() ([]int64, error) {
	out := make([]int64, len(t.cells))
	for d := range t.cells {
		s, err := t.MaxCellEdges(t.maxLevel - d)
		if err != nil {
			return nil, err
		}
		out[d] = s
	}
	return out, nil
}

// ImbalanceSummary returns the per-level skew (max cell / balanced cell),
// used by ablation A3 to compare bisectors; index i holds level
// MaxLevel−i.
func (t *Tree) ImbalanceSummary() ([]float64, error) {
	out := make([]float64, len(t.cells))
	for d := range t.cells {
		p, err := t.Profile(t.maxLevel - d)
		if err != nil {
			return nil, err
		}
		out[d] = p.Skew
	}
	return out, nil
}

// Validate checks the structural invariants the rest of the system relies
// on:
//
//   - permutations are bijections and pos arrays their inverses,
//   - range boundaries are monotone, span the whole side, and every depth
//     refines the previous one,
//   - the deepest cell matrix matches a fresh single-scan recount and
//     sums to the total record count, and every coarser matrix equals the
//     2×2 block aggregation of its child (which, with the recount, pins
//     all levels to the edges),
//   - the degree prefix sums are monotone and end at the record count,
//     and the stored dataset summary equals a fresh one from the degrees.
//
// The cell checks cost O(E + Σ_d 4^d) — one edge scan total, not one per
// depth.
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
	if t.graph != nil && total != t.graph.NumEdges() {
		return fmt.Errorf("%w: stored degrees sum to %d, graph has %d edges", ErrInvalid, total, t.graph.NumEdges())
	}
	for _, sd := range []struct {
		name string
		st   *sideTree
		side bipartite.Side
	}{{"left", &t.left, bipartite.Left}, {"right", &t.right, bipartite.Right}} {
		st := sd.st
		n := int32(len(st.perm))
		if len(st.deg) != int(n) {
			return fmt.Errorf("%w: %s has %d stored degrees for %d nodes", ErrInvalid, sd.name, len(st.deg), n)
		}
		if t.graph != nil {
			for node, d := range st.deg {
				if d != t.graph.Degree(sd.side, int32(node)) {
					return fmt.Errorf("%w: %s stored degree of node %d is %d, graph says %d",
						ErrInvalid, sd.name, node, d, t.graph.Degree(sd.side, int32(node)))
				}
			}
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
	if t.graph != nil {
		// The edge recount needs the edges; streamed trees instead pin the
		// deepest matrix to the degrees via the sum check below (and
		// BuildFromEdges cross-checks its two passes against each other).
		k := 1 << dmax
		recount := t.scanCells(k, t.left.groupOfNode(dmax), t.right.groupOfNode(dmax), 1)
		for i, c := range recount {
			if c != t.cells[dmax][i] {
				return fmt.Errorf("%w: depth %d cell %d stored %d, recounted %d", ErrInvalid, dmax, i, t.cells[dmax][i], c)
			}
		}
	}
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
