package hierarchy

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bipartite"
)

// Binary tree format:
//
//	magic "GDT1"
//	maxLevel            uvarint
//	numLeft, numRight   uvarint
//	left permutation    numLeft uvarints
//	right permutation   numRight uvarints
//	per depth d = 0..maxLevel:
//	  left bounds       2^d+1 uvarints (deltas)
//	  right bounds      2^d+1 uvarints (deltas)
//	privateCuts         uvarint
//
// Cell counts are recomputed from the graph on decode, which both keeps
// the stream small and cross-validates it: a corrupted permutation or
// boundary fails Validate.
//
// The grouping itself is part of the published artifact in the paper's
// model (users must know which group each entity belongs to), so the
// curator serializes the tree alongside the noisy releases.

var treeMagic = [4]byte{'G', 'D', 'T', '1'}

// ErrBadTreeFormat reports a corrupt or truncated tree stream.
var ErrBadTreeFormat = errors.New("hierarchy: bad tree format")

// EncodeBinary writes the tree's structure (permutations and range
// boundaries) to w.
func (t *Tree) EncodeBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(treeMagic[:]); err != nil {
		return fmt.Errorf("hierarchy: writing magic: %w", err)
	}
	writeUvarint(bw, uint64(t.maxLevel))
	writeUvarint(bw, uint64(len(t.left.perm)))
	writeUvarint(bw, uint64(len(t.right.perm)))
	for _, st := range []*sideTree{&t.left, &t.right} {
		for _, node := range st.perm {
			writeUvarint(bw, uint64(node))
		}
	}
	for d := 0; d <= t.maxLevel; d++ {
		for _, st := range []*sideTree{&t.left, &t.right} {
			prev := int32(0)
			for i, b := range st.bounds[d] {
				if i == 0 {
					writeUvarint(bw, uint64(b))
				} else {
					writeUvarint(bw, uint64(b-prev))
				}
				prev = b
			}
		}
	}
	writeUvarint(bw, uint64(t.privateCuts))
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("hierarchy: flushing tree: %w", err)
	}
	return nil
}

// DecodeBinary reads a tree previously written by EncodeBinary, binds it
// to g, recomputes cell counts and validates everything.
func DecodeBinary(r io.Reader, g *bipartite.Graph) (*Tree, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadTreeFormat, err)
	}
	if magic != treeMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadTreeFormat, magic[:])
	}
	maxLevel, err := readUvarintChecked(br, uint64(MaxRounds), "maxLevel")
	if err != nil {
		return nil, err
	}
	numLeft, err := readUvarintChecked(br, 1<<31, "numLeft")
	if err != nil {
		return nil, err
	}
	numRight, err := readUvarintChecked(br, 1<<31, "numRight")
	if err != nil {
		return nil, err
	}
	if int(numLeft) != g.NumLeft() || int(numRight) != g.NumRight() {
		return nil, fmt.Errorf("%w: tree sides %dx%d do not match graph %dx%d",
			ErrBadTreeFormat, numLeft, numRight, g.NumLeft(), g.NumRight())
	}

	t := &Tree{graph: g, maxLevel: int(maxLevel)}
	t.left = sideTree{perm: make([]int32, numLeft), pos: make([]int32, numLeft), deg: g.Degrees(bipartite.Left)}
	t.right = sideTree{perm: make([]int32, numRight), pos: make([]int32, numRight), deg: g.Degrees(bipartite.Right)}
	for _, st := range []*sideTree{&t.left, &t.right} {
		n := uint64(len(st.perm))
		for i := range st.perm {
			v, err := readUvarintChecked(br, n, "perm entry")
			if err != nil {
				return nil, err
			}
			if v >= n {
				return nil, fmt.Errorf("%w: perm entry %d out of range", ErrBadTreeFormat, v)
			}
			st.perm[i] = int32(v)
		}
	}
	for d := 0; d <= int(maxLevel); d++ {
		for _, st := range []*sideTree{&t.left, &t.right} {
			n := int32(len(st.perm))
			bounds := make([]int32, (1<<d)+1)
			prev := int32(0)
			for i := range bounds {
				v, err := readUvarintChecked(br, uint64(n)+1, "bound")
				if err != nil {
					return nil, err
				}
				if i == 0 {
					bounds[i] = int32(v)
				} else {
					bounds[i] = prev + int32(v)
				}
				if bounds[i] > n {
					return nil, fmt.Errorf("%w: bound %d exceeds side size %d", ErrBadTreeFormat, bounds[i], n)
				}
				prev = bounds[i]
			}
			st.bounds = append(st.bounds, bounds)
		}
	}
	cuts, err := readUvarintChecked(br, 1<<40, "privateCuts")
	if err != nil {
		return nil, err
	}
	t.privateCuts = int(cuts)

	t.stats = bipartite.StatsFromDegrees(t.left.deg, t.right.deg)
	t.left.index()
	t.right.index()
	t.computeCells(0)
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTreeFormat, err)
	}
	return t, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck // bufio defers errors to Flush
}

func readUvarintChecked(br *bufio.Reader, max uint64, what string) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: %s: %v", ErrBadTreeFormat, what, err)
	}
	if v > max {
		return 0, fmt.Errorf("%w: %s %d exceeds limit %d", ErrBadTreeFormat, what, v, max)
	}
	return v, nil
}
