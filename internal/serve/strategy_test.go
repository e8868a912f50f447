package serve

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/release"
)

func TestOpenUnknownStrategy(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Strategy = "no-such-strategy"
	if _, err := Open(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Open with unknown strategy: got %v, want ErrBadConfig", err)
	}
}

func TestAddDatasetWithUnknownStrategy(t *testing.T) {
	t.Parallel()
	reg, _ := openTestDataset(t, testConfig())
	if _, err := reg.AddDatasetWith("x", testSource(t), DatasetOptions{Strategy: "no-such-strategy"}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("AddDatasetWith unknown strategy: got %v, want ErrBadConfig", err)
	}
	// The failed add must not have reserved the name.
	if _, err := reg.AddDataset("x", testSource(t)); err != nil {
		t.Fatalf("re-adding after a refused strategy: %v", err)
	}
}

// TestDatasetStrategyAudit pins the audit-trail convention: non-default
// strategies prefix every ledger label with "strategy=<name>/", the
// default stays prefix-free (byte-identical to the pre-strategy layer).
func TestDatasetStrategyAudit(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Phase1Epsilon = 0.002
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })

	for _, name := range release.Strategies.Names() {
		ds, err := reg.AddDatasetWith("ds-"+name, testSource(t), DatasetOptions{Strategy: name})
		if err != nil {
			t.Fatalf("%s: ingest: %v", name, err)
		}
		if ds.Strategy() != name {
			t.Errorf("%s: Dataset.Strategy() = %q", name, ds.Strategy())
		}
		sess := ds.SessionAt(1)
		if _, err := sess.Marginal(1, bipartite.Left); err != nil {
			t.Fatalf("%s: marginal: %v", name, err)
		}
		ops := ds.Ops()
		if len(ops) < 2 {
			t.Fatalf("%s: expected phase-1 + query ops, got %d", name, len(ops))
		}
		wantPrefix := "strategy=" + name + "/"
		for _, op := range ops {
			if name == release.DefaultStrategyName {
				if strings.HasPrefix(op.Label, "strategy=") {
					t.Errorf("default strategy op %q carries a strategy prefix", op.Label)
				}
			} else if !strings.HasPrefix(op.Label, wantPrefix) {
				t.Errorf("%s: op %q missing prefix %q", name, op.Label, wantPrefix)
			}
		}
	}
}

// TestStrategySessionStreamsDisjoint pins that the same data under the
// same name but different strategies never shares noise or a budget: the
// strategy salt moves the fingerprint, which re-keys every session stream
// (streamFor(...).Split(print)) and names a different ledger WAL.
func TestStrategySessionStreamsDisjoint(t *testing.T) {
	t.Parallel()
	var datasets []*Dataset
	for _, name := range release.Strategies.Names() {
		reg, err := Open(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reg.Close() })
		ds, err := reg.AddDatasetWith("ds", testSource(t), DatasetOptions{Strategy: name})
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, ds)
	}
	a, b := datasets[0], datasets[1]
	if a.print == b.print {
		t.Errorf("%s and %s share the fingerprint %#016x", a.Strategy(), b.Strategy(), a.print)
	}
	if fa, fb := ledgerFileName(a.name, a.print), ledgerFileName(b.name, b.print); fa == fb {
		t.Errorf("%s and %s share the ledger WAL %s", a.Strategy(), b.Strategy(), fa)
	}
}

// TestPureStrategyServesDeltaZero pins the ε-accounting difference end
// to end: a pure-ε registry admits δ=0 budgets (the Gaussian σ probe
// would have refused them), serves Laplace histograms, and never
// spends δ — while a Gaussian-strategy dataset on the same registry is
// refused up front because its cells cannot be calibrated.
func TestPureStrategyServesDeltaZero(t *testing.T) {
	t.Parallel()
	reg, err := Open(Config{
		Budget:   dp.Params{Epsilon: 1},
		PerQuery: dp.Params{Epsilon: 0.02},
		Rounds:   5,
		Seed:     71,
		Strategy: "quadtree-laplace",
	})
	if err != nil {
		t.Fatalf("pure-ε registry with δ=0 budget: %v", err)
	}
	t.Cleanup(func() { reg.Close() })

	ds, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	view, err := ds.SessionAt(1).ReleaseLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	if view.Cells.MechName != core.MechLaplace.String() {
		t.Errorf("cells mechanism = %q, want laplace", view.Cells.MechName)
	}
	if spent := ds.Spent(); spent.Delta != 0 || spent.Epsilon <= 0 {
		t.Errorf("spent = %+v, want ε>0 and δ=0", spent)
	}

	if _, err := reg.AddDatasetWith("gauss", testSource(t), DatasetOptions{Strategy: release.DefaultStrategyName}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("gaussian dataset on a δ=0 registry: got %v, want ErrBadConfig", err)
	}
}
