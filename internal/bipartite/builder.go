package bipartite

import (
	"errors"
	"fmt"
	"sort"
)

// Builder accumulates association records and produces an immutable Graph.
// It deduplicates repeated edges, sorts adjacency lists, and can intern
// string labels so data can be added either by dense integer id or by
// name. The zero value is ready to use.
type Builder struct {
	edges []Edge

	numLeft  int32
	numRight int32

	leftIndex  map[string]int32
	rightIndex map[string]int32
	leftNames  []string
	rightNames []string
}

// NewBuilder returns an empty Builder with capacity hints for the expected
// number of edges.
func NewBuilder(edgeCapacity int) *Builder {
	if edgeCapacity < 0 {
		edgeCapacity = 0
	}
	return &Builder{edges: make([]Edge, 0, edgeCapacity)}
}

// AddEdge records the association (l, r) by dense id, growing the node
// ranges as needed. Negative ids are rejected at Build time.
func (b *Builder) AddEdge(l, r int32) {
	b.edges = append(b.edges, Edge{Left: l, Right: r})
	if l >= b.numLeft {
		b.numLeft = l + 1
	}
	if r >= b.numRight {
		b.numRight = r + 1
	}
}

// AddAssociation records an association between named entities, interning
// the names into dense ids. Mixing AddAssociation and AddEdge in one
// builder is rejected at Build time because the id spaces would collide.
func (b *Builder) AddAssociation(leftName, rightName string) {
	if b.leftIndex == nil {
		b.leftIndex = make(map[string]int32)
		b.rightIndex = make(map[string]int32)
	}
	l, ok := b.leftIndex[leftName]
	if !ok {
		l = int32(len(b.leftNames))
		b.leftIndex[leftName] = l
		b.leftNames = append(b.leftNames, leftName)
	}
	r, ok := b.rightIndex[rightName]
	if !ok {
		r = int32(len(b.rightNames))
		b.rightIndex[rightName] = r
		b.rightNames = append(b.rightNames, rightName)
	}
	b.AddEdge(l, r)
}

// SetNumLeft forces the left side to contain at least n nodes, so isolated
// nodes (entities with no associations) can be represented.
func (b *Builder) SetNumLeft(n int32) {
	if n > b.numLeft {
		b.numLeft = n
	}
}

// SetNumRight forces the right side to contain at least n nodes.
func (b *Builder) SetNumRight(n int32) {
	if n > b.numRight {
		b.numRight = n
	}
}

// ErrMixedIDSpaces reports a builder that received both named and raw-id
// records.
var ErrMixedIDSpaces = errors.New("bipartite: builder mixed AddAssociation and AddEdge id spaces")

// Build sorts, deduplicates and freezes the accumulated records into a
// Graph. The builder remains usable afterwards; Build copies what it needs.
func (b *Builder) Build() (*Graph, error) {
	if b.leftNames != nil {
		// Named mode: every id must have come from interning.
		if int(b.numLeft) > len(b.leftNames) || int(b.numRight) > len(b.rightNames) {
			return nil, ErrMixedIDSpaces
		}
	}
	for _, e := range b.edges {
		if e.Left < 0 || e.Right < 0 {
			return nil, fmt.Errorf("bipartite: negative node id in edge (%d,%d)", e.Left, e.Right)
		}
	}

	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Left != edges[j].Left {
			return edges[i].Left < edges[j].Left
		}
		return edges[i].Right < edges[j].Right
	})
	edges = dedupSorted(edges)

	g := &Graph{numLeft: b.numLeft, numRight: b.numRight}
	g.leftOff, g.leftAdj = buildCSR(edges, int(b.numLeft), func(e Edge) (int32, int32) { return e.Left, e.Right })

	// Re-sort by right-major order to build the reverse CSR.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Right != edges[j].Right {
			return edges[i].Right < edges[j].Right
		}
		return edges[i].Left < edges[j].Left
	})
	g.rightOff, g.rightAdj = buildCSR(edges, int(b.numRight), func(e Edge) (int32, int32) { return e.Right, e.Left })

	if b.leftNames != nil {
		g.leftNames = append([]string(nil), b.leftNames...)
		g.rightNames = append([]string(nil), b.rightNames...)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// dedupSorted removes duplicates from a slice sorted in left-major order.
func dedupSorted(edges []Edge) []Edge {
	if len(edges) == 0 {
		return edges
	}
	out := edges[:1]
	for _, e := range edges[1:] {
		if last := out[len(out)-1]; e != last {
			out = append(out, e)
		}
	}
	return out
}

// buildCSR builds offset and adjacency arrays for edges sorted by the key
// side extracted by key.
func buildCSR(edges []Edge, n int, key func(Edge) (from, to int32)) (off []int64, adj []int32) {
	off = make([]int64, n+1)
	adj = make([]int32, len(edges))
	for _, e := range edges {
		from, _ := key(e)
		off[from+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	cursor := make([]int64, n)
	for _, e := range edges {
		from, to := key(e)
		adj[off[from]+cursor[from]] = to
		cursor[from]++
	}
	return off, adj
}

// FromEdges is a convenience constructor that builds a Graph from a slice
// of edges with explicit side sizes.
func FromEdges(numLeft, numRight int32, edges []Edge) (*Graph, error) {
	b := NewBuilder(len(edges))
	b.SetNumLeft(numLeft)
	b.SetNumRight(numRight)
	for _, e := range edges {
		if e.Left >= numLeft || e.Right >= numRight {
			return nil, fmt.Errorf("bipartite: edge (%d,%d) outside declared sides (%d,%d)",
				e.Left, e.Right, numLeft, numRight)
		}
		b.AddEdge(e.Left, e.Right)
	}
	return b.Build()
}
