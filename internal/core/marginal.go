package core

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/hierarchy"
	"repro/internal/rng"
)

// MarginalRelease is a level's released marginal — the per-side-group
// association counts of one noisy cell histogram, row sums for the left
// side and column sums for the right — together with the noise window
// ReleaseMarginal reuses, so a caller looping releases into one dst
// allocates nothing once the buffers have grown.
type MarginalRelease struct {
	// Counts holds one noisy association count per side group of the
	// level.
	Counts []float64

	// window is the one chunk of noise the fused pass draws, rounds and
	// folds at a time: at most noiseChunk + rng.ZigBlock − 1 cells, or
	// the level's size when that is smaller.
	window []float64
}

// ReleaseMarginal releases a level's per-side-group association counts
// into dst.Counts: the row (left) or column (right) sums of the noisy
// cell histogram ReleaseCells would release from the same n and src,
// bit for bit, without holding that histogram. Removing a group changes
// the sums through its one cell, so the marginal is post-processing of
// the εg-group-DP histogram and costs what the histogram costs.
//
// The fused pass walks ReleaseCells' chunk grid with the same per-chunk
// streams: it draws each chunk into one reused window, adds the counts
// and rounds there (noisyChunk, shared with ReleaseCells), then folds
// the window into the sums (FoldMarginal, which query.MarginalCountsInto
// runs over a whole histogram) before the next chunk overwrites it. The
// streams are per chunk, so the sums equal those of ReleaseCells at any
// worker count; the pass itself runs on one goroutine. A caller that
// wants the noise pass sharded releases the cells with ReleaseCells and
// folds them (release.Engine.Marginal does, on an Engine with more than
// one worker).
func ReleaseMarginal(dst *MarginalRelease, t *hierarchy.Tree, level int, side bipartite.Side, n Noise, src *rng.Source) error {
	if !side.Valid() {
		return fmt.Errorf("core: invalid side %v", side)
	}
	s, err := n.resolve(t, level, ModelCells, src, true)
	if err != nil {
		return err
	}
	counts, err := t.LevelCellCountsView(level)
	if err != nil {
		return err
	}
	k, err := t.NumSideGroups(level)
	if err != nil {
		return err
	}
	noisyMarginal(dst, counts, roundFastExact(n.Mech, s.param, s.sens), k, side, n.Mech, s.param, src)
	return nil
}

// noisyMarginal is ReleaseMarginal over a row-major k × k count matrix:
// the marginal of what noisyCells(counts, fast, mech, param, src, w)
// releases for any w, drawing the same streams and leaving src where
// noisyCells leaves it.
func noisyMarginal(m *MarginalRelease, counts []int64, fast bool, k int, side bipartite.Side, mech NoiseMechanism, param float64, src *rng.Source) {
	m.Counts = growCells(m.Counts, k)
	clear(m.Counts)
	n := len(counts)
	chunks := noiseChunkCount(n)
	// The last chunk is the longest unless it is a fragment of its own.
	size := n - (chunks-1)*noiseChunk
	if chunks > 1 && size < noiseChunk {
		size = noiseChunk
	}
	m.window = growCells(m.window, size)
	var fork rng.Fork
	var cs rng.Source
	if param > 0 { // a zero parameter (empty dataset) draws nothing
		fork = src.Fork()
	}
	for c := 0; c < chunks; c++ {
		off, end := chunkSpan(c, chunks, n)
		window := m.window[:end-off]
		if param > 0 {
			fork.StreamTo(&cs, uint64(c))
			noisyChunk(window, off, counts, fast, mech, param, &cs)
		} else {
			for i, v := range counts[off:end] {
				window[i] = float64(v)
			}
		}
		FoldMarginal(m.Counts, window, off, k, side)
	}
}

// FoldMarginal adds cells, the cells [off, off+len(cells)) of a
// row-major k × k histogram, into sums, the k marginal sums of side:
// each row's cells into that row's sum in column order (a row cut by a
// window edge resumes from its stored partial sum, the same float), or
// each row's cells into the column sums, rows in order. Folding a
// histogram's cells in order — whole, or window by window as
// ReleaseMarginal does — into zeroed sums therefore yields the same
// marginal bit for bit. Whole rows go four at a time through foldRows4,
// which keeps every sum's order and only interleaves independent
// additions. Any side other than Left folds as Right; callers validate.
func FoldMarginal(sums, cells []float64, off, k int, side bipartite.Side) {
	row, col := off/k, off%k
	if col > 0 {
		n := min(k-col, len(cells))
		foldRow(sums, cells[:n], row, col, side)
		cells = cells[n:]
		row++
	}
	for ; len(cells) >= 4*k; row += 4 {
		foldRows4(sums, cells[:4*k], row, k, side)
		cells = cells[4*k:]
	}
	for ; len(cells) > 0; row++ {
		n := min(k, len(cells))
		foldRow(sums, cells[:n], row, 0, side)
		cells = cells[n:]
	}
}

// foldRow adds seg, the cells of one row from column col on, into the
// marginal sums.
func foldRow(sums, seg []float64, row, col int, side bipartite.Side) {
	if side == bipartite.Left {
		acc := sums[row]
		for _, v := range seg {
			acc += v
		}
		sums[row] = acc
		return
	}
	dst := sums[col : col+len(seg)]
	for i, v := range seg {
		dst[i] += v
	}
}

// foldRows4 adds rows, four whole rows of k cells from row row on, into
// the marginal sums: four row accumulators advancing together, or each
// column sum taking the four cells in row order — the additions of four
// foldRow calls, in the same order per sum, without the one-accumulator
// latency chain or three of the four column-sum stores.
func foldRows4(sums, rows []float64, row, k int, side bipartite.Side) {
	r0, r1, r2, r3 := rows[:k], rows[k:][:k], rows[2*k:][:k], rows[3*k:][:k]
	if side == bipartite.Left {
		a := sums[row : row+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		for j, v := range r0 {
			a0 += v
			a1 += r1[j]
			a2 += r2[j]
			a3 += r3[j]
		}
		a[0], a[1], a[2], a[3] = a0, a1, a2, a3
		return
	}
	dst := sums[:k]
	for j, v := range r0 {
		dst[j] = dst[j] + v + r1[j] + r2[j] + r3[j]
	}
}
