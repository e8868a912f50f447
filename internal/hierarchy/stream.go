package hierarchy

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/bipartite"
)

// The two-pass build.
//
// The deepest-level cell matrix is a pure sum over edges and every cut
// decision consumes only per-node degrees, so a build needs just two
// sequential passes over an edge stream:
//
//	pass 1 — accumulate per-node degrees on both sides (and discover the
//	         side sizes when the source does not declare them); declared-
//	         side sources shard across Options.Workers with per-worker
//	         degree arrays merged at the end;
//	pass 2 — after the cuts, count each edge into its deepest-level cell,
//	         feeding the bottom-up aggregation of setCells.
//
// Peak memory is O(chunk + sides + 4^rounds) on top of what the source
// holds: the build keeps no edges. The tree depends only on the edge
// multiset, never on its order or chunking (pinned by
// TestBuildFromEdgesMatchesInMemory): degrees determine the cuts, the
// bisector consumes its stream in serial range order, and cell counts
// are order-independent integer sums.

// ErrNilSource reports a nil EdgeSource.
var ErrNilSource = errors.New("hierarchy: nil edge source")

// streamChunkEdges is the chunk capacity the streamed build requests from
// the source per NextChunk call.
const streamChunkEdges = bipartite.DefaultChunkEdges

// BuildFromEdges runs Phase-1 specialization over an edge stream and
// returns the tree. The source is Reset before each of the two passes; a
// Graph is built over as bipartite.NewGraphSource(g).
func BuildFromEdges(src bipartite.EdgeSource, opts Options) (*Tree, error) {
	return NewBuilder().BuildFromEdges(src, opts)
}

// BuildFromEdges is the package function on this Builder.
func (b *Builder) BuildFromEdges(src bipartite.EdgeSource, opts Options) (*Tree, error) {
	if src == nil {
		return nil, ErrNilSource
	}
	if err := normalizeOptions(&opts); err != nil {
		return nil, err
	}

	if err := src.Reset(); err != nil {
		return nil, fmt.Errorf("hierarchy: resetting source for degree pass: %w", err)
	}
	leftDeg, rightDeg, edgeSum, err := scanStreamDegrees(src, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: degree pass: %w", err)
	}

	t := &Tree{maxLevel: opts.Rounds}
	left, right, err := t.specialize(leftDeg, rightDeg, opts)
	if err != nil {
		return nil, err
	}

	if err := src.Reset(); err != nil {
		return nil, fmt.Errorf("hierarchy: resetting source for cell pass: %w", err)
	}
	if err := t.finalizeFromSource(src, opts.Workers, edgeSum, left.finestGroups(), right.finestGroups()); err != nil {
		return nil, err
	}
	return t, nil
}

// maxShardDegreeNodes caps the combined size of the per-worker degree
// arrays the parallel pass 1 accumulates (in int64 entries across both
// sides and all workers). Past it the merge and the arrays themselves
// would cost more than the chunk fan-out saves, so the scan falls back to
// the serial sweep.
const maxShardDegreeNodes = 1 << 24

// edgeTerm is one edge's term of the checksum both passes sum: the square
// of the packed pair l<<32|r, mod 2^64. The sum does not depend on edge
// order, and, unlike any linear term, it moves when two edges trade
// endpoints — (a,x),(b,y) replayed as (a,y),(b,x) keeps every degree but
// shifts the sum by 2^33·(a−b)·(x−y).
func edgeTerm(e bipartite.Edge) uint64 {
	k := uint64(uint32(e.Left))<<32 | uint64(uint32(e.Right))
	return k * k
}

// scanStreamDegrees is pass 1: a sweep accumulating per-node degrees and
// the edge checksum (edgeTerm summed). The
// returned slice lengths define the side sizes: the declared sizes when
// the source knows them, grown to cover every observed id (geometric
// growth, trimmed back at the end — a source that hands out ascending
// ids, like a header-mode TSV of SaveTSV output, must not cost one
// reallocation per node).
//
// With workers > 1 and a source that declares its sides, chunks fan out
// over the same reader/worker pipeline pass 2 uses: each counting worker
// owns private degree arrays merged at the end. Degrees are
// order-independent integer sums, so the result is identical for any
// worker count; sources whose NextChunk does real work per edge (codec
// decoding) overlap that work with the accumulation. Sources that do
// not declare sides (headerless TSV) stay serial: the per-worker arrays
// grow to O(max observed id) each, and without declared sides there is
// no way to bound that workers× blowup up front — the serial sweep's
// single array is the memory envelope the streamed build promises.
func scanStreamDegrees(src bipartite.EdgeSource, workers int) (leftDeg, rightDeg []int64, edgeSum uint64, err error) {
	nl, nr, known := src.Sides()
	if workers > 1 && known && int64(workers)*(int64(nl)+int64(nr)) <= maxShardDegreeNodes {
		return scanStreamDegreesParallel(src, workers, nl, nr)
	}
	s := degreeShard{maxL: -1, maxR: -1}
	if known {
		s.left, s.right = make([]int64, nl), make([]int64, nr)
		s.maxL, s.maxR = nl-1, nr-1
	}
	if err := bipartite.ForEachChunk(src, make([]bipartite.Edge, streamChunkEdges), s.accumulate); err != nil {
		return nil, nil, 0, err
	}
	return s.left[:s.maxL+1], s.right[:s.maxR+1], s.edgeSum, nil
}

// degreeShard is one sweep's accumulation state: the serial sweep's
// whole result, or one parallel worker's private share of it.
type degreeShard struct {
	left, right []int64
	maxL, maxR  int32
	edgeSum     uint64
	err         error
}

// accumulate counts one chunk into the shard.
func (s *degreeShard) accumulate(chunk []bipartite.Edge) error {
	edgeSum := s.edgeSum
	for _, e := range chunk {
		if e.Left < 0 || e.Right < 0 {
			return fmt.Errorf("negative node id in edge (%d,%d)", e.Left, e.Right)
		}
		s.left = growCounts(s.left, e.Left)
		s.right = growCounts(s.right, e.Right)
		s.left[e.Left]++
		s.right[e.Right]++
		edgeSum += edgeTerm(e)
		if e.Left > s.maxL {
			s.maxL = e.Left
		}
		if e.Right > s.maxR {
			s.maxR = e.Right
		}
	}
	s.edgeSum = edgeSum
	return nil
}

// fanOutChunks is the shared reader/worker chunk pump of the parallel
// streaming scans: one reader goroutine recycles chunk buffers through
// a bounded free list while `workers` goroutines each run accumulate
// with their worker index over the chunks they pop — per-worker state
// (and per-worker error capture) belongs to the caller's closure. The
// returned error is the reader's; callers merge and check their own
// worker errors after it returns.
func fanOutChunks(src bipartite.EdgeSource, workers int, accumulate func(worker int, edges []bipartite.Edge)) error {
	type chunk struct {
		buf []bipartite.Edge
		n   int
	}
	free := make(chan []bipartite.Edge, workers+1)
	for i := 0; i < workers+1; i++ {
		free <- make([]bipartite.Edge, streamChunkEdges)
	}
	work := make(chan chunk, workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := range work {
				accumulate(w, c.buf[:c.n])
				free <- c.buf
			}
		}(w)
	}

	var readErr error
	for {
		buf := <-free
		n, err := src.NextChunk(buf)
		if err == io.EOF {
			break
		}
		if err == nil && n == 0 {
			err = errors.New("edge source returned an empty chunk without error")
		}
		if err != nil {
			readErr = err
			break
		}
		work <- chunk{buf: buf, n: n}
	}
	close(work)
	wg.Wait()
	return readErr
}

// scanStreamDegreesParallel fans degree accumulation across workers: the
// reader goroutine recycles chunk buffers through a free list while each
// worker grows private per-side arrays, merged by integer addition at the
// end — bit-identical to the serial sweep for any worker count. Only
// called for sources with declared sides, within the memory cap.
func scanStreamDegreesParallel(src bipartite.EdgeSource, workers int, nl, nr int32) ([]int64, []int64, uint64, error) {
	shards := make([]degreeShard, workers)
	for i := range shards {
		shards[i].maxL, shards[i].maxR = -1, -1
	}
	err := fanOutChunks(src, workers, func(w int, edges []bipartite.Edge) {
		if s := &shards[w]; s.err == nil {
			s.err = s.accumulate(edges)
		}
	})
	if err != nil {
		return nil, nil, 0, err
	}
	maxL, maxR := nl-1, nr-1
	var edgeSum uint64
	for i := range shards {
		if shards[i].err != nil {
			return nil, nil, 0, shards[i].err
		}
		edgeSum += shards[i].edgeSum
		if shards[i].maxL > maxL {
			maxL = shards[i].maxL
		}
		if shards[i].maxR > maxR {
			maxR = shards[i].maxR
		}
	}
	leftDeg := make([]int64, maxL+1)
	rightDeg := make([]int64, maxR+1)
	for i := range shards {
		for id, d := range shards[i].left {
			leftDeg[id] += d
		}
		for id, d := range shards[i].right {
			rightDeg[id] += d
		}
	}
	return leftDeg, rightDeg, edgeSum, nil
}

// growCounts extends counts so that id is a valid index. Capacity at
// least doubles on reallocation and the zeroed tail is re-sliced into
// without copying, so a sequential id stream costs amortized O(1) per
// node instead of one reallocation each.
func growCounts(counts []int64, id int32) []int64 {
	n := int(id) + 1
	if n <= len(counts) {
		return counts
	}
	if n <= cap(counts) {
		return counts[:n] // make() zeroed the tail; it was never written
	}
	newCap := 2 * cap(counts)
	if newCap < n {
		newCap = n
	}
	grown := make([]int64, n, newCap)
	copy(grown, counts)
	return grown
}

// finalizeFromSource is pass 2 of a build: the deepest cell matrix from
// one chunked scan of the source, with leftGroup and rightGroup mapping
// node ids to finest groups, and the bottom-up aggregation. It
// cross-checks the two passes, rejecting a source whose replay differs
// rather than producing a tree whose cells contradict its own degrees:
// every row of the deepest matrix must sum to the degree sum of its left
// group and every column to that of its right group (checkGroupSums, in
// O(4^rounds)), and the replay's edge checksum must equal the degree
// pass's. The sums catch a changed edge count or an edge re-pointed at
// another finest group; the checksum catches edges that trade endpoints
// so that every group keeps its count. Validate cannot stand in for
// this: the tree holds no edges to recount.
func (t *Tree) finalizeFromSource(src bipartite.EdgeSource, workers int, degreeEdgeSum uint64, leftGroup, rightGroup []int32) error {
	k := 1 << (len(t.left.bounds) - 1)
	deepest, edgeSum, err := scanCellsFromSource(src, k, workers, leftGroup, rightGroup)
	if err != nil {
		return fmt.Errorf("hierarchy: cell pass: %w", err)
	}
	var cellSum int64
	for _, c := range deepest {
		cellSum += c
	}
	if cellSum != t.numEdges {
		return fmt.Errorf("hierarchy: source changed between passes: degree pass saw %d edges, cell pass %d", t.numEdges, cellSum)
	}
	if err := t.checkGroupSums(deepest); err != nil {
		return fmt.Errorf("hierarchy: source changed between passes: %v", err)
	}
	if edgeSum != degreeEdgeSum {
		return fmt.Errorf("hierarchy: source changed between passes: the cell pass saw other edges than the degree pass (edge checksum %#x, want %#x)", edgeSum, degreeEdgeSum)
	}
	t.setCells(deepest)
	return nil
}

// scanCellsFromSource counts the stream's edges into the deepest k×k cell
// matrix and sums their edge checksum. With workers > 1 (and a matrix small enough that per-worker
// buffers stay under maxShardCells) chunks are fanned out over a small
// pipeline: the reader goroutine recycles chunk buffers through a free
// list while counting workers accumulate into private matrices merged at
// the end — integer sums, so the result is identical for any worker
// count.
func scanCellsFromSource(src bipartite.EdgeSource, k, workers int, leftGroup, rightGroup []int32) ([]int64, uint64, error) {
	shardCells := int64(workers) * int64(k) * int64(k)
	if workers < 2 || shardCells > maxShardCells {
		counts := make([]int64, k*k)
		var edgeSum uint64
		buf := make([]bipartite.Edge, streamChunkEdges)
		err := bipartite.ForEachChunk(src, buf, func(chunk []bipartite.Edge) error {
			return countEdgeChunk(counts, &edgeSum, chunk, leftGroup, rightGroup, k)
		})
		if err != nil {
			return nil, 0, err
		}
		return counts, edgeSum, nil
	}

	parts := make([][]int64, workers)
	partSums := make([]uint64, workers)
	workerErrs := make([]error, workers)
	for w := range parts {
		parts[w] = make([]int64, k*k)
	}
	err := fanOutChunks(src, workers, func(w int, edges []bipartite.Edge) {
		if workerErrs[w] == nil {
			workerErrs[w] = countEdgeChunk(parts[w], &partSums[w], edges, leftGroup, rightGroup, k)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	for _, werr := range workerErrs {
		if werr != nil {
			return nil, 0, werr
		}
	}
	counts := make([]int64, k*k)
	var edgeSum uint64
	for w, part := range parts {
		for i, c := range part {
			counts[i] += c
		}
		edgeSum += partSums[w]
	}
	return counts, edgeSum, nil
}

// countEdgeChunk counts one chunk into the k×k matrix and its edge terms
// into *edgeSum, rejecting ids the degree pass never sized for (a source
// that grew between passes).
func countEdgeChunk(counts []int64, edgeSum *uint64, edges []bipartite.Edge, leftGroup, rightGroup []int32, k int) error {
	sum := *edgeSum
	for _, e := range edges {
		if e.Left < 0 || int(e.Left) >= len(leftGroup) || e.Right < 0 || int(e.Right) >= len(rightGroup) {
			return fmt.Errorf("edge (%d,%d) outside the sides seen by the degree pass", e.Left, e.Right)
		}
		counts[int(leftGroup[e.Left])*k+int(rightGroup[e.Right])]++
		sum += edgeTerm(e)
	}
	*edgeSum = sum
	return nil
}
