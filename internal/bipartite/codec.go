package bipartite

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary format:
//
//	magic "BPG1"
//	flags uvarint          (bit 0: names present)
//	numLeft, numRight      uvarint
//	for each left node: degree uvarint, then neighbor deltas uvarint
//	                    (first neighbor absolute, then successive gaps-1)
//	if names: numLeft strings, numRight strings (uvarint length + bytes)
//
// Adjacency lists are strictly increasing after Build, so delta encoding
// is lossless and compact.

// BinaryMagic opens every file in the binary format; a file that starts
// with anything else is read as TSV.
const BinaryMagic = "BPG1"

const flagNames = 1 << 0

// ErrBadFormat reports a corrupt or truncated binary stream.
var ErrBadFormat = errors.New("bipartite: bad binary format")

// EncodeBinary writes the graph to w in the package's compact binary
// format.
func EncodeBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(BinaryMagic); err != nil {
		return fmt.Errorf("bipartite: writing magic: %w", err)
	}
	var flags uint64
	if g.HasNames() {
		flags |= flagNames
	}
	writeUvarint(bw, flags)
	writeUvarint(bw, uint64(g.numLeft))
	writeUvarint(bw, uint64(g.numRight))
	for l := int32(0); l < g.numLeft; l++ {
		row := g.Neighbors(Left, l)
		writeUvarint(bw, uint64(len(row)))
		prev := int32(-1)
		for i, r := range row {
			if i == 0 {
				writeUvarint(bw, uint64(r))
			} else {
				writeUvarint(bw, uint64(r-prev-1))
			}
			prev = r
		}
	}
	if g.HasNames() {
		for l := int32(0); l < g.numLeft; l++ {
			writeString(bw, g.LeftName(l))
		}
		for r := int32(0); r < g.numRight; r++ {
			writeString(bw, g.RightName(r))
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("bipartite: flushing binary graph: %w", err)
	}
	return nil
}

// DecodeBinary reads a graph previously written by EncodeBinary and
// validates it.
func DecodeBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadFormat, err)
	}
	if string(magic[:]) != BinaryMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic[:])
	}
	flags, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: flags: %v", ErrBadFormat, err)
	}
	numLeft, err := readCount(br, "numLeft")
	if err != nil {
		return nil, err
	}
	numRight, err := readCount(br, "numRight")
	if err != nil {
		return nil, err
	}
	b := NewBuilder(0)
	b.SetNumLeft(int32(numLeft))
	b.SetNumRight(int32(numRight))
	for l := int64(0); l < numLeft; l++ {
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: degree of left %d: %v", ErrBadFormat, l, err)
		}
		if deg > uint64(numRight) {
			return nil, fmt.Errorf("%w: degree %d exceeds right side %d", ErrBadFormat, deg, numRight)
		}
		prev := int64(-1)
		for i := uint64(0); i < deg; i++ {
			delta, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: neighbor of left %d: %v", ErrBadFormat, l, err)
			}
			var r int64
			if prev < 0 {
				r = int64(delta)
			} else {
				r = prev + 1 + int64(delta)
			}
			if r >= numRight {
				return nil, fmt.Errorf("%w: neighbor %d out of range", ErrBadFormat, r)
			}
			b.AddEdge(int32(l), int32(r))
			prev = r
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if flags&flagNames != 0 {
		g.leftNames = make([]string, numLeft)
		g.rightNames = make([]string, numRight)
		for i := range g.leftNames {
			if g.leftNames[i], err = readString(br); err != nil {
				return nil, err
			}
		}
		for i := range g.rightNames {
			if g.rightNames[i], err = readString(br); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

func readCount(br *bufio.Reader, what string) (int64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: %s: %v", ErrBadFormat, what, err)
	}
	const maxNodes = 1 << 31
	if v >= maxNodes {
		return 0, fmt.Errorf("%w: %s %d exceeds int32 range", ErrBadFormat, what, v)
	}
	return int64(v), nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck // bufio defers errors to Flush
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s) //nolint:errcheck // bufio defers errors to Flush
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("%w: string length: %v", ErrBadFormat, err)
	}
	const maxName = 1 << 20
	if n > maxName {
		return "", fmt.Errorf("%w: name of %d bytes too long", ErrBadFormat, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("%w: string body: %v", ErrBadFormat, err)
	}
	return string(buf), nil
}
