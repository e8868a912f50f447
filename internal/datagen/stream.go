package datagen

import (
	"fmt"
	"io"

	"repro/internal/bipartite"
	"repro/internal/rng"
)

// Stream yields the synthetic Zipf edges of a Config as chunks, in
// generation order, without ever building the Graph: no pair list, no
// CSR direction, no Builder sort. It implements bipartite.EdgeSource, so
// hierarchy.BuildFromEdges can specialize a synthetic dataset straight
// from the generator.
//
// Generate(c) builds its Graph from exactly these edges (through
// EdgeList), so a build over a Stream is bit-identical to one over
// bipartite.NewGraphSource(Generate(c)). Reset replays deterministically
// by re-deriving the RNG from the seed.
//
// Memory: the duplicate-rejection set is O(E) keys (8 bytes each plus map
// overhead) — far below a materialized Graph with its pair list and two
// CSR directions, but not constant. For truly beyond-RAM edge counts,
// generate once to a file (cmd/gdpgen) and stream it back with
// bipartite.NewTSVEdgeSource / NewBinaryEdgeSource instead.
type Stream struct {
	cfg Config

	zl, zr  *rng.Zipf
	uniform *rng.Source
	seen    map[[2]int32]struct{}
	dups    int
}

// NewStream validates c and returns a chunked source of its edges. Labels
// are a Graph-side concept (interned name tables) and are not supported on
// the streamed path.
func NewStream(c Config) (*Stream, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Labels {
		return nil, fmt.Errorf("%w: streaming does not support labels", ErrBadConfig)
	}
	s := &Stream{cfg: c}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset implements bipartite.EdgeSource: it rewinds the stream to the
// first edge by re-deriving every RNG stream from the seed.
func (s *Stream) Reset() error {
	src := rng.New(s.cfg.Seed)
	zl, err := rng.NewZipf(src.Split(1), s.cfg.LeftZipf, 1, uint64(s.cfg.NumLeft-1))
	if err != nil {
		return fmt.Errorf("datagen: left sampler: %w", err)
	}
	zr, err := rng.NewZipf(src.Split(2), s.cfg.RightZipf, 1, uint64(s.cfg.NumRight-1))
	if err != nil {
		return fmt.Errorf("datagen: right sampler: %w", err)
	}
	s.zl, s.zr = zl, zr
	s.uniform = src.Split(3)
	s.seen = make(map[[2]int32]struct{}, s.cfg.NumEdges)
	s.dups = 0
	return nil
}

// NextChunk implements bipartite.EdgeSource, drawing edges until the
// chunk is full or the edge target is reached. Zipf sampling revisits
// head pairs often: duplicates are retried, and once the head is
// saturated (many consecutive duplicates) a draw falls back to uniform
// endpoints, so generation always terminates.
func (s *Stream) NextChunk(dst []bipartite.Edge) (int, error) {
	if len(dst) == 0 {
		return 0, fmt.Errorf("datagen: NextChunk called with an empty destination buffer")
	}
	if len(s.seen) >= s.cfg.NumEdges {
		return 0, io.EOF
	}
	const maxConsecutiveDup = 64
	n := 0
	for n < len(dst) && len(s.seen) < s.cfg.NumEdges {
		var l, r int32
		if s.dups < maxConsecutiveDup {
			l = int32(s.zl.Next())
			r = int32(s.zr.Next())
		} else {
			l = int32(s.uniform.Intn(s.cfg.NumLeft))
			r = int32(s.uniform.Intn(s.cfg.NumRight))
		}
		key := [2]int32{l, r}
		if _, dup := s.seen[key]; dup {
			s.dups++
			continue
		}
		s.dups = 0
		s.seen[key] = struct{}{}
		dst[n] = bipartite.Edge{Left: l, Right: r}
		n++
	}
	return n, nil
}

// Sides implements bipartite.EdgeSource; the config declares both sizes
// (isolated nodes included).
func (s *Stream) Sides() (int32, int32, bool) {
	return int32(s.cfg.NumLeft), int32(s.cfg.NumRight), true
}

// EdgeList materializes just the deduplicated edge list of a Config (in
// generation order) with the declared side sizes — the middle ground for
// repeated streamed builds over one synthetic dataset: one synthesis, 8
// bytes per edge, and bipartite.NewSliceSource cursors fan it out across
// trial lanes without re-drawing the Zipf streams per pass.
func EdgeList(c Config) (edges []bipartite.Edge, numLeft, numRight int32, err error) {
	s, err := NewStream(c)
	if err != nil {
		return nil, 0, 0, err
	}
	edges = make([]bipartite.Edge, 0, c.NumEdges)
	err = bipartite.ForEachChunk(s, make([]bipartite.Edge, bipartite.DefaultChunkEdges), func(chunk []bipartite.Edge) error {
		edges = append(edges, chunk...)
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return edges, int32(c.NumLeft), int32(c.NumRight), nil
}
