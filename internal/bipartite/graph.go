// Package bipartite implements the association-graph substrate the paper's
// disclosure pipeline runs on: an immutable bipartite graph in compressed
// sparse row (CSR) form, a deduplicating builder, summary statistics, and
// codecs for TSV, JSON-lines and a compact binary format, plus a loader for
// DBLP-style XML.
//
// Nodes on the two sides are identified by dense int32 indices. In the
// paper's running example the left side holds entities such as authors,
// patients or viewers, and the right side holds papers, drugs or movies; an
// edge is one association record ("author a wrote paper p").
package bipartite

import (
	"errors"
	"fmt"
)

// Side selects one of the two node sides of a bipartite graph.
type Side int

// Sides of the bipartite graph. The enum starts at 1 so that the zero
// value is invalid and cannot be mistaken for a deliberate choice.
const (
	Left Side = iota + 1
	Right
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case Left:
		return "left"
	case Right:
		return "right"
	default:
		return fmt.Sprintf("Side(%d)", int(s))
	}
}

// Valid reports whether s is Left or Right.
func (s Side) Valid() bool { return s == Left || s == Right }

// Edge is one association record between a left node and a right node.
type Edge struct {
	Left  int32
	Right int32
}

// Graph is an immutable bipartite association graph stored in CSR form
// from both sides. Construct one with a Builder or a codec; the zero value
// is an empty graph.
type Graph struct {
	numLeft  int32
	numRight int32

	// CSR from the left side: neighbors of left node i are
	// leftAdj[leftOff[i]:leftOff[i+1]], sorted ascending.
	leftOff []int64
	leftAdj []int32

	// CSR from the right side, symmetric to the above.
	rightOff []int64
	rightAdj []int32

	// Optional human-readable labels; nil when the graph is anonymous.
	leftNames  []string
	rightNames []string
}

// NumLeft returns the number of left-side nodes.
func (g *Graph) NumLeft() int { return int(g.numLeft) }

// NumRight returns the number of right-side nodes.
func (g *Graph) NumRight() int { return int(g.numRight) }

// NumEdges returns the number of association records.
func (g *Graph) NumEdges() int64 { return int64(len(g.leftAdj)) }

// NumSide returns the node count of the given side. It returns 0 for an
// invalid side.
func (g *Graph) NumSide(s Side) int {
	switch s {
	case Left:
		return g.NumLeft()
	case Right:
		return g.NumRight()
	default:
		return 0
	}
}

// Degree returns the degree of node id on the given side. It panics if the
// id is out of range, mirroring slice indexing semantics.
func (g *Graph) Degree(s Side, id int32) int64 {
	switch s {
	case Left:
		return g.leftOff[id+1] - g.leftOff[id]
	case Right:
		return g.rightOff[id+1] - g.rightOff[id]
	default:
		panic("bipartite: Degree called with invalid side")
	}
}

// Neighbors returns the sorted adjacency list of node id on side s. The
// returned slice aliases the graph's internal storage and must not be
// modified.
func (g *Graph) Neighbors(s Side, id int32) []int32 {
	switch s {
	case Left:
		return g.leftAdj[g.leftOff[id]:g.leftOff[id+1]]
	case Right:
		return g.rightAdj[g.rightOff[id]:g.rightOff[id+1]]
	default:
		panic("bipartite: Neighbors called with invalid side")
	}
}

// HasEdge reports whether the association (l, r) is present, via binary
// search on the smaller adjacency list.
func (g *Graph) HasEdge(l, r int32) bool {
	if l < 0 || l >= g.numLeft || r < 0 || r >= g.numRight {
		return false
	}
	var adj []int32
	var want int32
	if g.Degree(Left, l) <= g.Degree(Right, r) {
		adj, want = g.Neighbors(Left, l), r
	} else {
		adj, want = g.Neighbors(Right, r), l
	}
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == want
}

// ForEachEdge calls fn once per association in left-major order. It stops
// early if fn returns false.
func (g *Graph) ForEachEdge(fn func(l, r int32) bool) {
	for l := int32(0); l < g.numLeft; l++ {
		for _, r := range g.leftAdj[g.leftOff[l]:g.leftOff[l+1]] {
			if !fn(l, r) {
				return
			}
		}
	}
}

// AdjacencyView exposes the CSR arrays of side s without a per-edge
// callback: off has NumSide(s)+1 entries and adj holds the concatenated,
// sorted neighbor lists, so the neighbors of node i on side s are
// adj[off[i]:off[i+1]]. Iterating adj in order visits every association
// exactly once (left-major for s == Left). Both slices alias the graph's
// internal storage and must not be modified; hot paths such as the
// hierarchy's single-scan cell aggregation use this view to stream edges
// at memory bandwidth instead of paying a function call per edge.
func (g *Graph) AdjacencyView(s Side) (off []int64, adj []int32) {
	switch s {
	case Left:
		return g.leftOff, g.leftAdj
	case Right:
		return g.rightOff, g.rightAdj
	default:
		panic("bipartite: AdjacencyView called with invalid side")
	}
}

// Edges materializes all associations in left-major order. Prefer
// ForEachEdge for large graphs.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.ForEachEdge(func(l, r int32) bool {
		out = append(out, Edge{Left: l, Right: r})
		return true
	})
	return out
}

// LeftName returns the label of left node id, or an empty string when the
// graph carries no labels.
func (g *Graph) LeftName(id int32) string {
	if g.leftNames == nil {
		return ""
	}
	return g.leftNames[id]
}

// RightName returns the label of right node id, or an empty string when
// the graph carries no labels.
func (g *Graph) RightName(id int32) string {
	if g.rightNames == nil {
		return ""
	}
	return g.rightNames[id]
}

// HasNames reports whether the graph carries node labels.
func (g *Graph) HasNames() bool { return g.leftNames != nil || g.rightNames != nil }

// errValidate prefixes validation failures.
var errValidate = errors.New("bipartite: invalid graph")

// Validate checks internal consistency of the CSR structures. Decoded
// graphs are validated automatically; Validate is exposed for tests and
// for callers that construct graphs through unsafe paths.
func (g *Graph) Validate() error {
	if int64(len(g.leftAdj)) != int64(len(g.rightAdj)) {
		return fmt.Errorf("%w: left and right CSR disagree on edge count (%d vs %d)",
			errValidate, len(g.leftAdj), len(g.rightAdj))
	}
	if len(g.leftOff) != int(g.numLeft)+1 || len(g.rightOff) != int(g.numRight)+1 {
		return fmt.Errorf("%w: offset array lengths do not match node counts", errValidate)
	}
	if err := validateCSR(g.leftOff, g.leftAdj, g.numRight); err != nil {
		return fmt.Errorf("%w: left CSR: %v", errValidate, err)
	}
	if err := validateCSR(g.rightOff, g.rightAdj, g.numLeft); err != nil {
		return fmt.Errorf("%w: right CSR: %v", errValidate, err)
	}
	if g.leftNames != nil && len(g.leftNames) != int(g.numLeft) {
		return fmt.Errorf("%w: left name count %d != %d", errValidate, len(g.leftNames), g.numLeft)
	}
	if g.rightNames != nil && len(g.rightNames) != int(g.numRight) {
		return fmt.Errorf("%w: right name count %d != %d", errValidate, len(g.rightNames), g.numRight)
	}
	return nil
}

func validateCSR(off []int64, adj []int32, otherSide int32) error {
	if len(off) == 0 || off[0] != 0 {
		return errors.New("offsets must start at 0")
	}
	if off[len(off)-1] != int64(len(adj)) {
		return fmt.Errorf("final offset %d != adjacency length %d", off[len(off)-1], len(adj))
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("offsets decrease at %d", i)
		}
		row := adj[off[i-1]:off[i]]
		for j, v := range row {
			if v < 0 || v >= otherSide {
				return fmt.Errorf("neighbor %d out of range [0,%d)", v, otherSide)
			}
			if j > 0 && row[j-1] >= v {
				return fmt.Errorf("row %d not strictly increasing", i-1)
			}
		}
	}
	return nil
}
