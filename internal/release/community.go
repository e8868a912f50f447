package release

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

// CommunityPartitioner is a Phase-1 stage in the PrivGraph shape:
// instead of ordering each side by raw degree, it discovers communities
// by synchronous label propagation over the bipartite edges (a
// modularity-style grouping — each node adopts the strongest label among
// its neighbours), perturbs the per-node assignments with k-ary
// randomized response when a Phase-1 budget is configured, and hands the
// hierarchy an explicit ordering that lays each community out
// contiguously (degree-descending inside it). The quadtree's contiguous
// range cuts then approximate community boundaries, concentrating
// within-community mass into few cells.
//
// The propagation itself reads only the edge multiset, so the privacy
// cost is exactly the randomized response over assignments: one k-RR per
// node at cfg.Epsilon, parallel across the disjoint nodes of a side,
// charged as one ledger op per side. Unlike the quadtree's
// exponential-mechanism cuts the spend happens before any tree exists,
// so ChargeAlways reports true and the pipeline charges whenever the
// budget is set, private cuts or not.
type CommunityPartitioner struct {
	// Passes is the number of synchronous label-propagation sweeps;
	// 0 selects the default (4). Propagation is Jacobi-style — every
	// pass reads the previous pass's labels only — so the result is
	// independent of edge order and worker count.
	Passes int
}

// communityDefaultPasses is the label-propagation sweep count when
// CommunityPartitioner.Passes is zero. Four sweeps reach label
// agreement on the small-diameter association graphs the pipeline
// targets; more sweeps only churn ties.
const communityDefaultPasses = 4

// Name implements Partitioner.
func (CommunityPartitioner) Name() string { return "community" }

// Ops implements Partitioner: one randomized-response charge per side.
func (CommunityPartitioner) Ops(cfg PartitionConfig) []PhaseOp {
	if cfg.Epsilon <= 0 {
		return nil
	}
	return []PhaseOp{
		{Label: "phase1/community/left", Cost: dp.Params{Epsilon: cfg.Epsilon}},
		{Label: "phase1/community/right", Cost: dp.Params{Epsilon: cfg.Epsilon}},
	}
}

// ChargeAlways implements Partitioner: the randomized response spends
// before the tree exists, independent of whether any cut is private.
func (CommunityPartitioner) ChargeAlways() bool { return true }

// PlanSource implements Partitioner.
func (c CommunityPartitioner) PlanSource(es bipartite.EdgeSource, cfg PartitionConfig, src *rng.Source) (PartitionPlan, error) {
	if es == nil {
		return PartitionPlan{}, ErrNilSource
	}
	passes := c.Passes
	if passes <= 0 {
		passes = communityDefaultPasses
	}

	leftDeg, rightDeg, err := communityDegrees(es)
	if err != nil {
		return PartitionPlan{}, err
	}

	leftLab, rightLab, err := propagateLabels(es, leftDeg, rightDeg, passes)
	if err != nil {
		return PartitionPlan{}, err
	}

	// Collapse raw labels to dense per-side community ranks, perturb
	// them, and derive the static ordering keys. The randomized response
	// consumes nodes in id order (left side first) from one serial
	// stream, so the draw sequence — and with it every downstream noise
	// stream — is fixed by (data, epsilon, seed) alone.
	leftRank := denseRanks(leftLab)
	rightRank := denseRanks(rightLab)
	if cfg.Epsilon > 0 {
		randomizeRanks(leftRank, cfg.Epsilon, src)
		randomizeRanks(rightRank, cfg.Epsilon, src)
	}

	keys := &hierarchy.OrderKeys{
		Left:  communityKeys(leftRank, leftDeg),
		Right: communityKeys(rightRank, rightDeg),
	}

	// The ordering already encodes the (perturbed) grouping and the
	// budget is spent on it, so the cuts themselves stay public.
	return PartitionPlan{Bisector: partition.BalancedBisector{}, Keys: keys}, nil
}

// communityDegrees is the partitioner's degree pass, sized by the same
// rule as the hierarchy's streamed degree scan (declared sides when
// known, grown to cover every observed id) so the produced key slices
// always match the tree's side sizes.
func communityDegrees(es bipartite.EdgeSource) (leftDeg, rightDeg []int64, err error) {
	if err := es.Reset(); err != nil {
		return nil, nil, fmt.Errorf("release: community degree pass: %w", err)
	}
	if nl, nr, known := es.Sides(); known {
		leftDeg = make([]int64, nl)
		rightDeg = make([]int64, nr)
	}
	buf := make([]bipartite.Edge, bipartite.DefaultChunkEdges)
	err = bipartite.ForEachChunk(es, buf, func(chunk []bipartite.Edge) error {
		for _, e := range chunk {
			leftDeg = growTo(leftDeg, int(e.Left))
			rightDeg = growTo(rightDeg, int(e.Right))
			leftDeg[e.Left]++
			rightDeg[e.Right]++
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("release: community degree pass: %w", err)
	}
	return leftDeg, rightDeg, nil
}

// growTo extends s to cover index i, doubling to amortize ascending-id
// sources.
func growTo(s []int64, i int) []int64 {
	if i < len(s) {
		return s
	}
	n := len(s)
	if n == 0 {
		n = 1
	}
	for n <= i {
		n *= 2
	}
	grown := make([]int64, i+1, n)
	copy(grown, s)
	return grown
}

// labelRecord is one node's state during propagation: its current
// community label and the strength backing it.
type labelRecord struct {
	label    uint64
	strength int64
}

// better reports whether candidate a beats b: higher strength wins,
// ties break toward the smaller label. Both orders are total and
// edge-order-independent, which is what keeps the synchronous sweep
// deterministic.
func better(a, b labelRecord) bool {
	if a.strength != b.strength {
		return a.strength > b.strength
	}
	return a.label < b.label
}

// propagateLabels runs synchronous label propagation over the stream:
// every node starts as its own community (left node i → label i, right
// node j → label numLeft+j) with strength equal to its degree; each pass
// every node adopts the strongest label among its previous-pass
// neighbours, capped at its own degree so hub labels do not steamroll
// the periphery. Each pass reads only the previous pass's records, so
// the fixed point depends on the edge multiset, never on edge order.
func propagateLabels(es bipartite.EdgeSource, leftDeg, rightDeg []int64, passes int) (leftLab, rightLab []uint64, err error) {
	nl := len(leftDeg)
	left := make([]labelRecord, nl)
	right := make([]labelRecord, len(rightDeg))
	for i := range left {
		left[i] = labelRecord{label: uint64(i), strength: leftDeg[i]}
	}
	for j := range right {
		right[j] = labelRecord{label: uint64(nl + j), strength: rightDeg[j]}
	}

	nextLeft := make([]labelRecord, len(left))
	nextRight := make([]labelRecord, len(right))
	buf := make([]bipartite.Edge, bipartite.DefaultChunkEdges)
	for p := 0; p < passes; p++ {
		copy(nextLeft, left)
		copy(nextRight, right)
		if err := es.Reset(); err != nil {
			return nil, nil, fmt.Errorf("release: community pass %d: %w", p, err)
		}
		err := bipartite.ForEachChunk(es, buf, func(chunk []bipartite.Edge) error {
			for _, e := range chunk {
				if cand := right[e.Right]; better(cand, nextLeft[e.Left]) {
					nextLeft[e.Left] = cand
				}
				if cand := left[e.Left]; better(cand, nextRight[e.Right]) {
					nextRight[e.Right] = cand
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("release: community pass %d: %w", p, err)
		}
		for i := range nextLeft {
			if nextLeft[i].strength > leftDeg[i] {
				nextLeft[i].strength = leftDeg[i]
			}
		}
		for j := range nextRight {
			if nextRight[j].strength > rightDeg[j] {
				nextRight[j].strength = rightDeg[j]
			}
		}
		left, nextLeft = nextLeft, left
		right, nextRight = nextRight, right
	}

	leftLab = make([]uint64, len(left))
	for i, r := range left {
		leftLab[i] = r.label
	}
	rightLab = make([]uint64, len(right))
	for j, r := range right {
		rightLab[j] = r.label
	}
	return leftLab, rightLab, nil
}

// denseRanks collapses arbitrary labels to 0..K-1 ranks in ascending
// label order.
func denseRanks(labels []uint64) []uint32 {
	distinct := make([]uint64, 0, len(labels))
	seen := make(map[uint64]uint32, len(labels))
	for _, l := range labels {
		if _, ok := seen[l]; !ok {
			seen[l] = 0
			distinct = append(distinct, l)
		}
	}
	sort.Slice(distinct, func(a, b int) bool { return distinct[a] < distinct[b] })
	for rank, l := range distinct {
		seen[l] = uint32(rank)
	}
	ranks := make([]uint32, len(labels))
	for i, l := range labels {
		ranks[i] = seen[l]
	}
	return ranks
}

// RandomizedRank releases one community assignment under k-ary
// randomized response: the true rank is kept with probability
// e^ε/(e^ε+K−1) and otherwise replaced by a uniform draw over the K−1
// OTHER communities — the textbook mechanism, whose worst-case
// likelihood ratio is exactly e^ε. (A uniform draw over all K would
// exceed that ratio.) Exported so the privacy auditor (internal/
// dpcheck) can sample the exact production draw. k ≤ 1 returns the
// rank unchanged without consuming randomness.
func RandomizedRank(rank uint32, k uint64, eps float64, src *rng.Source) uint32 {
	if k <= 1 {
		return rank
	}
	expEps := math.Exp(eps)
	keep := expEps / (expEps + float64(k-1))
	if src.Float64() < keep {
		return rank
	}
	alt := src.Uint64n(k - 1)
	if alt >= uint64(rank) {
		alt++
	}
	return uint32(alt)
}

// randomizeRanks applies RandomizedRank in place to a side's dense
// assignments, serial in node-id order.
func randomizeRanks(ranks []uint32, eps float64, src *rng.Source) {
	k := uint64(0)
	for _, r := range ranks {
		if uint64(r) >= k {
			k = uint64(r) + 1
		}
	}
	if k <= 1 {
		return
	}
	for i := range ranks {
		ranks[i] = RandomizedRank(ranks[i], k, eps, src)
	}
}

// communityKeys packs (community rank, within-side degree rank) into
// the hierarchy's static ordering keys: communities laid out
// contiguously in rank order, degree-descending inside each. The degree
// rank is unique per node (degree desc, id asc), so keys are unique and
// the ordering is total without relying on the sort's id tie-break.
func communityKeys(ranks []uint32, deg []int64) []uint64 {
	idx := make([]int32, len(deg))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		if deg[idx[a]] != deg[idx[b]] {
			return deg[idx[a]] > deg[idx[b]]
		}
		return idx[a] < idx[b]
	})
	keys := make([]uint64, len(deg))
	for degRank, node := range idx {
		keys[node] = uint64(ranks[node])<<32 | uint64(uint32(degRank))
	}
	return keys
}
