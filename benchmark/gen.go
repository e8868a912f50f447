package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"repro/internal/bipartite"
)

// graphSpec sizes the generated association graph. The full size is the
// benchmark's frozen input; the small one serves -smoke and the tests.
type graphSpec struct {
	NumLeft, NumRight int32
	NumEdges          int
}

var (
	fullGraph  = graphSpec{NumLeft: 400_000, NumRight: 700_000, NumEdges: 2_000_000}
	smokeGraph = graphSpec{NumLeft: 4_000, NumRight: 7_000, NumEdges: 20_000}
)

// Degree-tail exponents of the two sides, the DBLP presets' shape.
const (
	leftExponent  = 1.9
	rightExponent = 2.8
	// headFraction sets each side's head shift to 1/headFraction of its
	// node count.
	headFraction = 200
)

// splitmix is the generator's own RNG: inputs must depend on -seed and
// on nothing the program under test can change.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a uniform draw in [0, 1).
func (s *splitmix) unit() float64 { return float64(s.next()>>11) / (1 << 53) }

// powerLawRank draws a rank in [0, n) from the continuous power law
// x^-exponent truncated to [head, head+n): the head shift flattens the
// top ranks, so the heaviest nodes share the mass a bare power law would
// put on rank 0 and two million distinct pairs exist to be drawn.
type powerLawRank struct {
	n, head  float64
	lo, span float64 // head^(1-exponent) and the CDF span up to head+n
	invPower float64 // 1 / (1-exponent)
}

func newPowerLawRank(n int32, exponent float64) powerLawRank {
	head := float64(n) / headFraction
	lo := math.Pow(head, 1-exponent)
	return powerLawRank{
		n: float64(n), head: head,
		lo: lo, span: math.Pow(head+float64(n), 1-exponent) - lo,
		invPower: 1 / (1 - exponent),
	}
}

func (p powerLawRank) draw(u float64) int32 {
	r := math.Pow(p.lo+u*p.span, p.invPower) - p.head
	if r >= p.n { // guards the u→1 rounding edge
		r = p.n - 1
	}
	return int32(r)
}

// generateEdges returns exactly spec.NumEdges distinct (left, right)
// pairs, packed left<<32|right and sorted, as a pure function of seed.
// Both endpoints are independent power-law ranks; candidates are drawn
// in batches and sort-uniqued until enough distinct pairs exist, then
// the surplus is dropped at evenly spaced positions so no id range is
// favoured.
func generateEdges(spec graphSpec, seed uint64) ([]uint64, error) {
	if spec.NumEdges <= 0 || int64(spec.NumEdges) > int64(spec.NumLeft)*int64(spec.NumRight)/4 {
		return nil, fmt.Errorf("generator: %d edges do not fit %d×%d nodes", spec.NumEdges, spec.NumLeft, spec.NumRight)
	}
	rng := splitmix(seed)
	left := newPowerLawRank(spec.NumLeft, leftExponent)
	right := newPowerLawRank(spec.NumRight, rightExponent)
	keys := make([]uint64, 0, spec.NumEdges+spec.NumEdges/2)
	for len(keys) < spec.NumEdges {
		for want := spec.NumEdges - len(keys) + spec.NumEdges/8; want > 0; want-- {
			l, r := left.draw(rng.unit()), right.draw(rng.unit())
			keys = append(keys, uint64(l)<<32|uint64(r))
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	if surplus := len(keys) - spec.NumEdges; surplus > 0 {
		out := keys[:0]
		step := float64(len(keys)) / float64(surplus)
		nextDrop, dropped := 0, 0
		for i, k := range keys {
			if dropped < surplus && i == nextDrop {
				dropped++
				nextDrop = int(float64(dropped) * step)
				continue
			}
			out = append(out, k)
		}
		keys = out
	}
	return keys, nil
}

// encodeGraph builds the graph through the program's public builder and
// serializes it with the program's binary codec — the bytes every
// ingest in the benchmark uploads.
func encodeGraph(spec graphSpec, keys []uint64) ([]byte, error) {
	b := bipartite.NewBuilder(len(keys))
	b.SetNumLeft(spec.NumLeft)
	b.SetNumRight(spec.NumRight)
	for _, k := range keys {
		b.AddEdge(int32(k>>32), int32(uint32(k)))
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("generator: building graph: %w", err)
	}
	var buf bytes.Buffer
	if err := bipartite.EncodeBinary(&buf, g); err != nil {
		return nil, fmt.Errorf("generator: encoding graph: %w", err)
	}
	return buf.Bytes(), nil
}
