package hierarchy

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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
// Cell counts are not written: they follow from the structure and the
// edges. The encoding is canonical, so two trees with equal encodings
// made every cut identically — how gdpbench -streamverify compares the
// tree over a streamed file with the one over its loaded Graph.

var treeMagic = [4]byte{'G', 'D', 'T', '1'}

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

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck // bufio defers errors to Flush
}
