package bipartite

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// EdgeSource is a resettable stream of association records, the substrate
// of the chunked release pipeline: hierarchy.BuildFromEdges consumes one
// source in two passes (degrees, then cell counts) so a beyond-RAM edge
// file is never materialized as a Graph — peak memory is O(chunk + sides),
// not O(E).
//
// Contract:
//
//   - NextChunk fills dst[:n] with the next n > 0 edges and returns a nil
//     error, or returns n == 0 with io.EOF once the stream is exhausted
//     (or another error on failure). It never returns 0 edges with a nil
//     error.
//   - Reset rewinds the source to its first edge. Replays must yield the
//     same edge sequence, so the two build passes see one dataset.
//   - Sides reports the declared node counts when the source knows them
//     (known == false otherwise, and consumers size by the largest id
//     seen). Declared sides may exceed the largest referenced id — that is
//     how isolated nodes survive streaming.
//
// Sources are not safe for concurrent use; give each goroutine its own
// (SliceSource cursors over one shared edge slice are the cheap way to fan
// out). A source must yield each distinct association exactly once:
// consumers count every edge they see, whereas the in-memory Builder
// deduplicates, so duplicates would skew a streamed build. SaveTSV output,
// the binary codec and the datagen stream satisfy this by construction.
type EdgeSource interface {
	NextChunk(dst []Edge) (int, error)
	Reset() error
	Sides() (numLeft, numRight int32, known bool)
}

// DefaultChunkEdges is the chunk capacity consumers use when they have no
// reason to pick another: 8192 edges = 64 KiB per buffer.
const DefaultChunkEdges = 8192

// errZeroChunk guards consumers against spinning on an empty buffer.
var errZeroChunk = errors.New("bipartite: NextChunk called with an empty destination buffer")

// ---------------------------------------------------------------------------
// SliceSource

// SliceSource streams an in-memory edge slice. It is the cheap fan-out
// cursor: many SliceSources can share one immutable backing slice.
type SliceSource struct {
	numLeft, numRight int32
	edges             []Edge
	next              int
}

// NewSliceSource returns a source over edges with declared side sizes
// (which, as everywhere, may exceed the largest referenced id to encode
// isolated nodes). The slice is not copied and must not change while the
// source is in use.
func NewSliceSource(numLeft, numRight int32, edges []Edge) *SliceSource {
	return &SliceSource{numLeft: numLeft, numRight: numRight, edges: edges}
}

// NextChunk implements EdgeSource.
func (s *SliceSource) NextChunk(dst []Edge) (int, error) {
	if len(dst) == 0 {
		return 0, errZeroChunk
	}
	if s.next >= len(s.edges) {
		return 0, io.EOF
	}
	n := copy(dst, s.edges[s.next:])
	s.next += n
	return n, nil
}

// Reset implements EdgeSource.
func (s *SliceSource) Reset() error { s.next = 0; return nil }

// Sides implements EdgeSource.
func (s *SliceSource) Sides() (int32, int32, bool) { return s.numLeft, s.numRight, true }

// ---------------------------------------------------------------------------
// GraphSource

// GraphSource streams the edges of a built Graph in left-major order
// without copying them — how a Graph goes into the two-pass hierarchy
// build.
type GraphSource struct {
	g   *Graph
	off []int64
	adj []int32
	l   int32 // current left node
	e   int64 // next edge index into adj
}

// NewGraphSource returns a source over g's associations.
func NewGraphSource(g *Graph) *GraphSource {
	off, adj := g.AdjacencyView(Left)
	return &GraphSource{g: g, off: off, adj: adj}
}

// NextChunk implements EdgeSource.
func (s *GraphSource) NextChunk(dst []Edge) (int, error) {
	if len(dst) == 0 {
		return 0, errZeroChunk
	}
	if s.e >= int64(len(s.adj)) {
		return 0, io.EOF
	}
	n := 0
	for n < len(dst) && s.e < int64(len(s.adj)) {
		for s.e >= s.off[s.l+1] {
			s.l++
		}
		dst[n] = Edge{Left: s.l, Right: s.adj[s.e]}
		n++
		s.e++
	}
	return n, nil
}

// Reset implements EdgeSource.
func (s *GraphSource) Reset() error { s.l, s.e = 0, 0; return nil }

// Sides implements EdgeSource.
func (s *GraphSource) Sides() (int32, int32, bool) {
	return int32(s.g.NumLeft()), int32(s.g.NumRight()), true
}

// ---------------------------------------------------------------------------
// TSVEdgeSource

// TSVEdgeSource streams "left<TAB>right" lines as edge chunks without
// holding the file's pairs in memory. Mode resolution matches LoadTSV: a
// "# gdp-tsv mode=" first line fixes the interpretation; otherwise the
// source sniffs the file once at construction (an extra sequential pass)
// and treats it as dense ids only when every field is a canonical
// non-negative integer. In name mode labels are interned incrementally —
// the intern tables persist across Reset, so both build passes see one id
// space and memory stays O(distinct names), never O(E) pairs.
//
// Duplicate data lines are yielded as-is: detecting them would need the
// O(E) pair set streaming exists to avoid. A file with repeated pairs
// therefore double-counts in streamed builds, where LoadTSV's Builder
// would deduplicate — deduplicate such files first (e.g. sort -u), or run
// gdpbench -edges with -streamverify, which catches the divergence.
// SaveTSV output is duplicate-free by construction.
type TSVEdgeSource struct {
	rs     io.ReadSeeker
	sc     *bufio.Scanner
	lineNo int
	done   bool

	mode       tsvMode // resolved to tsvIDs or tsvNames before serving
	leftIndex  map[string]int32
	rightIndex map[string]int32

	numLeft, numRight int32
	sized             bool
}

// NewTSVEdgeSource returns a source over the TSV stream in rs, which is
// read from offset zero. Without a mode header the whole file is scanned
// once up front to decide the mode (and, in id mode, the side sizes).
func NewTSVEdgeSource(rs io.ReadSeeker) (*TSVEdgeSource, error) {
	s := &TSVEdgeSource{rs: rs}
	if err := s.resolveMode(); err != nil {
		return nil, err
	}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// resolveMode reads the header line or, absent one, sniffs the whole file.
func (s *TSVEdgeSource) resolveMode() error {
	if _, err := s.rs.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("bipartite: seeking tsv: %w", err)
	}
	sc := newTSVScanner(s.rs)
	lineNo := 0
	numeric := true
	var maxL, maxR int32 = -1, -1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			if lineNo == 1 {
				m, ok, err := parseTSVHeader(line)
				if err != nil {
					return err
				}
				if ok {
					s.mode = m
					return nil // header decides; no sniff pass needed
				}
			}
			continue
		}
		l, r, err := splitTSVFields(line)
		if err != nil {
			return fmt.Errorf("bipartite: tsv line %d: %v", lineNo, err)
		}
		if numeric {
			lv, lok := parseID(l)
			rv, rok := parseID(r)
			if !lok || !rok {
				numeric = false
			} else {
				if lv > maxL {
					maxL = lv
				}
				if rv > maxR {
					maxR = rv
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return wrapTSVScanErr(err, lineNo)
	}
	if numeric {
		s.mode = tsvIDs
		s.numLeft, s.numRight = maxL+1, maxR+1
		s.sized = true
	} else {
		s.mode = tsvNames
	}
	return nil
}

// NextChunk implements EdgeSource.
func (s *TSVEdgeSource) NextChunk(dst []Edge) (int, error) {
	if len(dst) == 0 {
		return 0, errZeroChunk
	}
	if s.done {
		return 0, io.EOF
	}
	n := 0
	for n < len(dst) && s.sc.Scan() {
		s.lineNo++
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lf, rf, err := splitTSVFields(line)
		if err != nil {
			return n, fmt.Errorf("bipartite: tsv line %d: %v", s.lineNo, err)
		}
		var e Edge
		if s.mode == tsvIDs {
			l, err := parseNodeID(lf)
			if err != nil {
				return n, fmt.Errorf("bipartite: tsv line %d: %v", s.lineNo, err)
			}
			r, err := parseNodeID(rf)
			if err != nil {
				return n, fmt.Errorf("bipartite: tsv line %d: %v", s.lineNo, err)
			}
			e = Edge{Left: l, Right: r}
			if l >= s.numLeft {
				s.numLeft = l + 1
			}
			if r >= s.numRight {
				s.numRight = r + 1
			}
		} else {
			e = Edge{Left: s.intern(&s.leftIndex, lf), Right: s.intern(&s.rightIndex, rf)}
		}
		dst[n] = e
		n++
	}
	if n == len(dst) {
		return n, nil
	}
	if err := s.sc.Err(); err != nil {
		return n, wrapTSVScanErr(err, s.lineNo)
	}
	s.done = true
	if s.mode == tsvNames {
		s.numLeft = int32(len(s.leftIndex))
		s.numRight = int32(len(s.rightIndex))
	}
	s.sized = true
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// intern resolves a label to its dense id, assigning ids in
// first-appearance order — the same order LoadTSV's Builder would.
func (s *TSVEdgeSource) intern(index *map[string]int32, name string) int32 {
	if *index == nil {
		*index = make(map[string]int32)
	}
	id, ok := (*index)[name]
	if !ok {
		id = int32(len(*index))
		(*index)[name] = id
	}
	return id
}

// Reset implements EdgeSource. Intern tables survive, so replayed passes
// map names to the same ids.
func (s *TSVEdgeSource) Reset() error {
	if _, err := s.rs.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("bipartite: seeking tsv: %w", err)
	}
	s.sc = newTSVScanner(s.rs)
	s.lineNo = 0
	s.done = false
	return nil
}

// Sides implements EdgeSource. Sizes are known up front for id-mode files
// (the sniff pass measures them) and after the first complete pass in name
// mode.
func (s *TSVEdgeSource) Sides() (int32, int32, bool) {
	return s.numLeft, s.numRight, s.sized
}

// ---------------------------------------------------------------------------
// BinaryEdgeSource

// BinaryEdgeSource streams edges out of the package's compact binary
// format (EncodeBinary) by walking the delta-encoded adjacency rows
// directly — the graph's CSR arrays are never rebuilt. Varints are decoded
// from the reader's buffered bytes as a slice, not pulled one byte at a
// time through an io.ByteReader. Node labels, when present, trail the
// edge section and are not decoded. The format stores each association
// exactly once, already deduplicated.
type BinaryEdgeSource struct {
	rs io.ReadSeeker
	br *bufio.Reader
	// win[pos:] is the undecoded rest of br's buffered bytes: NextChunk
	// decodes varints from the slice, and br only learns what was consumed
	// when the window runs out (see uvarintSlow).
	win []byte
	pos int

	numLeft, numRight int64

	l    int64 // current left node
	deg  uint64
	prev int64
	done bool
}

// NewBinaryEdgeSource returns a source over the binary graph stream in rs,
// which is read from offset zero.
func NewBinaryEdgeSource(rs io.ReadSeeker) (*BinaryEdgeSource, error) {
	s := &BinaryEdgeSource{rs: rs}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset implements EdgeSource: it seeks back to the start and re-reads the
// header.
func (s *BinaryEdgeSource) Reset() error {
	if _, err := s.rs.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("bipartite: seeking binary graph: %w", err)
	}
	s.br = bufio.NewReader(s.rs)
	var magic [4]byte
	if _, err := io.ReadFull(s.br, magic[:]); err != nil {
		return fmt.Errorf("%w: reading magic: %v", ErrBadFormat, err)
	}
	if string(magic[:]) != BinaryMagic {
		return fmt.Errorf("%w: magic %q", ErrBadFormat, magic[:])
	}
	if _, err := binary.ReadUvarint(s.br); err != nil { // flags
		return fmt.Errorf("%w: flags: %v", ErrBadFormat, err)
	}
	var err error
	if s.numLeft, err = readCount(s.br, "numLeft"); err != nil {
		return err
	}
	if s.numRight, err = readCount(s.br, "numRight"); err != nil {
		return err
	}
	s.win, s.pos = nil, 0
	s.l, s.deg, s.prev = -1, 0, -1
	s.done = false
	return nil
}

// uvarintSlow decodes the varint at win[pos:] when it is not one or two
// bytes inside the window. A longer value wholly in view is decoded from
// the slice. When the window ends inside the varint (or is empty, or
// the varint overflows) the reader is handed back at the varint's first
// byte and binary.ReadUvarint decodes across the refill — so truncation
// and overflow surface as its io.EOF, io.ErrUnexpectedEOF and overflow
// errors — and whatever the refill buffered becomes the next window.
func (s *BinaryEdgeSource) uvarintSlow() (uint64, error) {
	if v, n := binary.Uvarint(s.win[s.pos:]); n > 0 {
		s.pos += n
		return v, nil
	}
	s.br.Discard(s.pos) //nolint:errcheck // pos never exceeds the buffered bytes
	v, err := binary.ReadUvarint(s.br)
	s.win, _ = s.br.Peek(s.br.Buffered()) // never short: these bytes are buffered
	s.pos = 0
	return v, err
}

// NextChunk implements EdgeSource. The edge section is one run of
// varints — per left node its degree, then that many neighbor deltas —
// decoded out of the reader's buffered bytes: the window is held in
// locals, a one-byte varint (most degrees, and most deltas of clustered
// data) costs a compare and a load, a two-byte one (most gaps between
// the neighbors of a sparse row) one more of each, and only longer
// values and window refills leave the loop for uvarintSlow.
func (s *BinaryEdgeSource) NextChunk(dst []Edge) (int, error) {
	if len(dst) == 0 {
		return 0, errZeroChunk
	}
	if s.done {
		return 0, io.EOF
	}
	win, pos := s.win, s.pos
	l, deg, prev := s.l, s.deg, s.prev
	n := 0
	var err error
	for n < len(dst) {
		rowStart := deg == 0 // the next varint is a degree, not a neighbor
		if rowStart && l+1 >= s.numLeft {
			s.done = true
			break
		}
		var v uint64
		if pos < len(win) && win[pos] < 0x80 {
			v = uint64(win[pos])
			pos++
		} else if pos+1 < len(win) && win[pos+1] < 0x80 {
			v = uint64(win[pos]&0x7f) | uint64(win[pos+1])<<7
			pos += 2
		} else {
			s.pos = pos
			v, err = s.uvarintSlow()
			win, pos = s.win, s.pos
			if err != nil {
				if rowStart {
					err = fmt.Errorf("%w: degree of left %d: %v", ErrBadFormat, l+1, err)
				} else {
					err = fmt.Errorf("%w: neighbor of left %d: %v", ErrBadFormat, l, err)
				}
				break
			}
		}
		if rowStart {
			l++
			if v > uint64(s.numRight) {
				err = fmt.Errorf("%w: degree %d exceeds right side %d", ErrBadFormat, v, s.numRight)
				break
			}
			deg, prev = v, -1
			continue
		}
		r := int64(v)
		if prev >= 0 {
			r = prev + 1 + int64(v)
		}
		if r >= s.numRight {
			err = fmt.Errorf("%w: neighbor %d out of range", ErrBadFormat, r)
			break
		}
		dst[n] = Edge{Left: int32(l), Right: int32(r)}
		n++
		prev = r
		deg--
	}
	s.pos = pos
	s.l, s.deg, s.prev = l, deg, prev
	if err != nil {
		return n, err
	}
	if n == 0 {
		return 0, io.EOF // only the end of the edge section leaves the loop empty-handed
	}
	return n, nil
}

// Sides implements EdgeSource; the binary header declares both sizes.
func (s *BinaryEdgeSource) Sides() (int32, int32, bool) {
	return int32(s.numLeft), int32(s.numRight), true
}

// ---------------------------------------------------------------------------
// Helpers over sources

// ForEachChunk drains src from its current position, calling fn once per
// non-empty chunk (the slice is only valid during the call). It owns the
// EdgeSource loop contract in one place: io.EOF ends the drain cleanly,
// other errors propagate, and a 0-edge chunk with a nil error — a
// misbehaving source that would spin its consumer — is rejected.
func ForEachChunk(src EdgeSource, buf []Edge, fn func(chunk []Edge) error) error {
	for {
		n, err := src.NextChunk(buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("bipartite: edge source returned an empty chunk without error")
		}
		if err := fn(buf[:n]); err != nil {
			return err
		}
	}
}

// ReadAllEdges drains src from its current position and returns the
// remaining edges — a convenience for tests and small inputs; it defeats
// the purpose of streaming for large ones.
func ReadAllEdges(src EdgeSource) ([]Edge, error) {
	var out []Edge
	err := ForEachChunk(src, make([]Edge, DefaultChunkEdges), func(chunk []Edge) error {
		out = append(out, chunk...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
