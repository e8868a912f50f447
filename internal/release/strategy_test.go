package release

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"slices"
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
	if StrategySalt("quadtree-laplace") == 0 {
		t.Error("the non-default strategy must salt to nonzero")
	}
}

func TestWithStrategyUnknown(t *testing.T) {
	t.Parallel()
	// community-gaussian was a built-in until its Phase-1 privacy claim
	// was shown not to hold; the name must fail loudly, not fall back.
	for _, name := range []string{"no-such-strategy", "community-gaussian"} {
		_, err := New(defaultBudget(), WithStrategy(name))
		if !errors.Is(err, ErrUnknownStrategy) {
			t.Errorf("strategy %q: got %v, want ErrUnknownStrategy", name, err)
		}
	}
}

func TestStrategyRegistryValidation(t *testing.T) {
	t.Parallel()
	for _, name := range Strategies.Names() {
		s, err := Strategies.Resolve(name)
		if err != nil || s.Name() != name {
			t.Fatalf("Resolve(%q) = %v, %v", name, s, err)
		}
		if !s.Noise.Count.Valid() || !s.Noise.Cells.Valid() {
			t.Errorf("%s: invalid noise stage %+v", name, s.Noise)
		}
	}
	if _, err := Strategies.Resolve("absent"); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("unknown resolve: got %v, want ErrUnknownStrategy", err)
	}
}

func TestStrategiesRegistryBuiltins(t *testing.T) {
	t.Parallel()
	// Sorted, and exactly the two built-ins.
	if names, want := Strategies.Names(), []string{DefaultStrategyName, "quadtree-laplace"}; !slices.Equal(names, want) {
		t.Errorf("Names() = %v, want %v", names, want)
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
