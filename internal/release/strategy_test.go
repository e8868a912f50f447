package release

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"sort"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
)

// Golden hashes of the default strategy's artifacts, captured on the
// pre-strategy engine. The strategy seam must keep them byte-identical:
// the default strategy IS the old pipeline.
const (
	goldenDefaultArtifact = "caef744d6d0b56a73a070b532eab67d07954fe06b338105c57f6ca85e5c0d09b"
	// goldenLoadedRawArtifact is the loaded configuration: cell
	// histograms and a Phase-1 budget. Captured on the engine that still
	// had the consistency and grouping options, without either; re-pinned
	// once when released cells became integers (only the cell counts
	// moved). The default artifact carries no cells and did not move.
	goldenLoadedRawArtifact = "996a320be4ab3dfffaa16380b75df68ac13869774d5a998d3c4d03c853cb7b30"
)

func artifactHash(t *testing.T, rel *Release) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rel.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestDefaultStrategyGoldenPinned(t *testing.T) {
	t.Parallel()
	g := testGraph(t)

	p, err := New(defaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := p.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := artifactHash(t, rel); got != goldenDefaultArtifact {
		t.Errorf("default artifact hash = %s, want pre-strategy golden %s", got, goldenDefaultArtifact)
	}
	if rel.Strategy != "" {
		t.Errorf("default artifact names a strategy %q; must stay absent for byte-stability", rel.Strategy)
	}

	loaded, err := New(defaultBudget(),
		WithRounds(6), WithSeed(3), WithCellHistograms(true),
		WithPhase1Epsilon(0.2), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	rel, err = loaded.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := artifactHash(t, rel); got != goldenLoadedRawArtifact {
		t.Errorf("loaded artifact hash = %s, want golden %s", got, goldenLoadedRawArtifact)
	}
}

// TestStrategyMatrixDeterminism is the cross-strategy golden matrix:
// every registered strategy must produce bit-identical artifacts across
// worker counts and across the in-memory and streamed build paths.
func TestStrategyMatrixDeterminism(t *testing.T) {
	t.Parallel()
	g := testGraph(t)

	for _, name := range Strategies.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var base string
			for _, workers := range []int{1, 4, 7} {
				p, err := New(defaultBudget(),
					WithStrategy(name), WithRounds(6), WithSeed(3),
					WithCellHistograms(true), WithPhase1Epsilon(0.2), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				rel, err := p.Run(g)
				if err != nil {
					t.Fatalf("workers=%d Run: %v", workers, err)
				}
				runHash := artifactHash(t, rel)
				rel, err = p.RunFromEdges(bipartite.NewGraphSource(g))
				if err != nil {
					t.Fatalf("workers=%d RunFromEdges: %v", workers, err)
				}
				if streamHash := artifactHash(t, rel); streamHash != runHash {
					t.Errorf("workers=%d: streamed artifact %s != in-memory %s", workers, streamHash, runHash)
				}
				if base == "" {
					base = runHash
				} else if runHash != base {
					t.Errorf("workers=%d artifact %s != workers=1 artifact %s", workers, runHash, base)
				}
			}
		})
	}
}

// TestStrategiesDisjointStreams pins that distinct strategies never share
// noise draws: same data, seed and budget must yield distinct artifacts.
func TestStrategiesDisjointStreams(t *testing.T) {
	t.Parallel()
	g := testGraph(t)

	seen := map[string]string{}
	for _, name := range Strategies.Names() {
		p, err := New(defaultBudget(),
			WithStrategy(name), WithRounds(6), WithSeed(3),
			WithCellHistograms(true), WithPhase1Epsilon(0.2))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := p.Run(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := artifactHash(t, rel)
		for other, oh := range seen {
			if oh == h {
				t.Errorf("strategies %s and %s produced identical artifacts", name, other)
			}
		}
		seen[name] = h
	}
}

func TestStrategySalt(t *testing.T) {
	t.Parallel()
	if StrategySalt("") != 0 {
		t.Error("empty name must salt to 0")
	}
	if StrategySalt(DefaultStrategyName) != 0 {
		t.Error("default strategy must salt to 0")
	}
	a, b := StrategySalt("quadtree-laplace"), StrategySalt("community-gaussian")
	if a == 0 || b == 0 || a == b {
		t.Errorf("non-default salts must be distinct and nonzero, got %d and %d", a, b)
	}
}

func TestWithStrategyUnknown(t *testing.T) {
	t.Parallel()
	_, err := New(defaultBudget(), WithStrategy("no-such-strategy"))
	if !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("unknown strategy: got %v, want ErrUnknownStrategy", err)
	}
}

func TestStrategyRegistryValidation(t *testing.T) {
	t.Parallel()
	reg := NewStrategyRegistry()

	valid, err := NewStrategy("s1", QuadtreePartitioner{},
		NoiseStage{Count: core.MechGaussian, Cells: core.MechGaussian})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(valid); err != nil {
		t.Fatalf("registering a valid strategy: %v", err)
	}
	if err := reg.Register(valid); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("duplicate registration: got %v, want ErrBadStrategy", err)
	}
	if err := reg.Register(nil); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("nil registration: got %v, want ErrBadStrategy", err)
	}
	if err := reg.Register(&Strategy{}); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("empty-name registration: got %v, want ErrBadStrategy", err)
	}

	if _, err := NewStrategy("", QuadtreePartitioner{},
		NoiseStage{Count: core.MechGaussian, Cells: core.MechGaussian}); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("empty name: got %v, want ErrBadStrategy", err)
	}
	if _, err := NewStrategy("x", nil,
		NoiseStage{Count: core.MechGaussian, Cells: core.MechGaussian}); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("nil partitioner: got %v, want ErrBadStrategy", err)
	}
	if _, err := NewStrategy("x", QuadtreePartitioner{},
		NoiseStage{Count: core.NoiseMechanism(99), Cells: core.MechGaussian}); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("bad count mechanism: got %v, want ErrBadStrategy", err)
	}

	if _, err := reg.Resolve("absent"); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("unknown resolve: got %v, want ErrUnknownStrategy", err)
	}
}

func TestStrategiesRegistryBuiltins(t *testing.T) {
	t.Parallel()
	names := Strategies.Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	want := []string{"community-gaussian", DefaultStrategyName, "quadtree-laplace"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("built-in %q missing from registry (have %v)", w, names)
		}
	}
	s, err := Strategies.Resolve("")
	if err != nil || s.Name() != DefaultStrategyName {
		t.Errorf("Resolve(\"\") = %v, %v; want the default strategy", s, err)
	}
}

// TestPureStrategyDeltaZero pins the ε-accounting difference: the pure-ε
// strategy's artifact must carry δ = 0 everywhere Phase 2 spent.
func TestPureStrategyDeltaZero(t *testing.T) {
	t.Parallel()
	g := testGraph(t)
	p, err := New(dp.Params{Epsilon: 0.9},
		WithStrategy("quadtree-laplace"), WithRounds(5), WithCellHistograms(true))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := p.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Strategy != "quadtree-laplace" {
		t.Errorf("artifact strategy = %q, want quadtree-laplace", rel.Strategy)
	}
	if rel.MechName != core.MechLaplace.String() {
		t.Errorf("artifact mechanism = %q, want %q", rel.MechName, core.MechLaplace)
	}
	if rel.SequentialCostDelta != 0 || rel.ParallelCostDelta != 0 {
		t.Errorf("pure-ε strategy leaked delta: seq %v par %v",
			rel.SequentialCostDelta, rel.ParallelCostDelta)
	}
	for _, c := range rel.Cells {
		if c.Delta != 0 {
			t.Errorf("level %d cells carry delta %v, want 0", c.Level, c.Delta)
		}
		if c.MechName != core.MechLaplace.String() {
			t.Errorf("level %d cells mechanism %q, want laplace", c.Level, c.MechName)
		}
	}
	for _, op := range rel.Audit {
		if op.Cost.Delta != 0 {
			t.Errorf("ledger op %s carries delta %v, want 0", op.Label, op.Cost.Delta)
		}
	}
}

// TestCommunityStrategyAccounting pins that the community partitioner
// charges its randomized response exactly once per side, even when no
// cut is private (ChargeAlways).
func TestCommunityStrategyAccounting(t *testing.T) {
	t.Parallel()
	g := testGraph(t)
	p, err := New(defaultBudget(),
		WithStrategy("community-gaussian"), WithRounds(5), WithPhase1Epsilon(0.3))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := p.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rel.Phase1Epsilon, 2*0.3; got != want {
		t.Errorf("Phase1Epsilon = %v, want %v (one RR per side)", got, want)
	}
	var labels []string
	for _, op := range rel.Audit {
		labels = append(labels, op.Label)
	}
	wantPrefix := []string{"phase1/community/left", "phase1/community/right"}
	for i, w := range wantPrefix {
		if i >= len(labels) || labels[i] != w {
			t.Fatalf("audit trail starts %v, want prefix %v", labels, wantPrefix)
		}
	}

	// Without a Phase-1 budget the grouping is public and free.
	free, err := New(defaultBudget(), WithStrategy("community-gaussian"), WithRounds(5))
	if err != nil {
		t.Fatal(err)
	}
	rel, err = free.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Phase1Epsilon != 0 {
		t.Errorf("unbudgeted community run charged phase 1: %v", rel.Phase1Epsilon)
	}
	for _, op := range rel.Audit {
		if op.Label == "phase1/community/left" || op.Label == "phase1/community/right" {
			t.Errorf("unbudgeted community run spent %s", op.Label)
		}
	}
}

// TestCommunityKeysMatchTreeSides exercises the explicit-ordering path
// against a source that does not declare its sides, where both the
// partitioner's degree pass and the hierarchy's must discover identical
// side sizes or the build fails with ErrBadKeys.
func TestCommunityStreamedUndeclaredSides(t *testing.T) {
	t.Parallel()
	g := testGraph(t)
	var edges []bipartite.Edge
	g.ForEachEdge(func(l, r int32) bool {
		edges = append(edges, bipartite.Edge{Left: l, Right: r})
		return true
	})
	src := undeclaredSource{edges: edges}

	p, err := New(defaultBudget(),
		WithStrategy("community-gaussian"), WithRounds(5), WithPhase1Epsilon(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunFromEdges(&src); err != nil {
		t.Fatalf("streamed community build over undeclared sides: %v", err)
	}
}

// undeclaredSource is an EdgeSource that never declares its sides,
// forcing every consumer through the max-observed-id sizing rule.
type undeclaredSource struct {
	edges []bipartite.Edge
	next  int
}

func (s *undeclaredSource) NextChunk(dst []bipartite.Edge) (int, error) {
	if s.next >= len(s.edges) {
		return 0, io.EOF
	}
	n := copy(dst, s.edges[s.next:])
	s.next += n
	return n, nil
}

func (s *undeclaredSource) Reset() error { s.next = 0; return nil }

func (s *undeclaredSource) Sides() (int32, int32, bool) { return 0, 0, false }
