package dpcheck

// The estimator's own tests: known laws drawn straight from internal/rng,
// so a failure here is the estimator's and not a release kernel's. The
// audits of what ships are in dpcheck_test.go and strategy_test.go and
// call no sampler themselves (CI greps for it).

import (
	"errors"
	"testing"

	"repro/internal/rng"
)

// laplacePair returns mechanism closures for a Laplace count query on two
// adjacent databases (true counts t and t+1, sensitivity 1).
func laplacePair(t *testing.T, eps float64) (MechanismFunc, MechanismFunc) {
	t.Helper()
	scale := 1 / eps
	onD1 := func(src *rng.Source) float64 { return 100 + src.Laplace(scale) }
	onD2 := func(src *rng.Source) float64 { return 101 + src.Laplace(scale) }
	return onD1, onD2
}

func TestEstimateEpsilonLaplace(t *testing.T) {
	t.Parallel()
	for _, eps := range []float64{0.5, 1, 2} {
		eps := eps
		onD1, onD2 := laplacePair(t, eps)
		res, err := EstimateEpsilon(onD1, onD2, Config{Seed: 42})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		// The empirical loss must be near ε: well above ε/2 (the
		// mechanism is tight) and no more than ~25% above (sampling).
		if res.EpsilonHat > eps*1.25 {
			t.Errorf("eps=%v: estimate %v too high", eps, res.EpsilonHat)
		}
		if res.EpsilonHat < eps*0.5 {
			t.Errorf("eps=%v: estimate %v implausibly low", eps, res.EpsilonHat)
		}
		if res.BinsUsed == 0 {
			t.Error("no bins used")
		}
	}
}

// TestEstimateEpsilonCatchesUnderNoising is the negative control: a
// mechanism that claims ε=1 but adds noise for ε=3 must be flagged.
func TestEstimateEpsilonCatchesUnderNoising(t *testing.T) {
	t.Parallel()
	onD1, onD2 := laplacePair(t, 3) // actual loss 3
	res, err := EstimateEpsilon(onD1, onD2, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const claimed = 1.0
	if res.EpsilonHat <= claimed*1.5 {
		t.Errorf("under-noised mechanism not caught: estimate %v vs claimed %v", res.EpsilonHat, claimed)
	}
}

func TestEstimateEpsilonIdenticalInputs(t *testing.T) {
	t.Parallel()
	m := func(src *rng.Source) float64 { return src.Laplace(1) }
	res, err := EstimateEpsilon(m, m, Config{Seed: 3, Samples: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if res.EpsilonHat > 0.15 {
		t.Errorf("identical distributions estimated at %v", res.EpsilonHat)
	}
}

func TestEstimateEpsilonConstantMechanism(t *testing.T) {
	t.Parallel()
	m := func(src *rng.Source) float64 { return 5 }
	res, err := EstimateEpsilon(m, m, Config{Seed: 3, Samples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.EpsilonHat != 0 {
		t.Errorf("constant identical mechanism estimate = %v", res.EpsilonHat)
	}
	// Disjoint constants: no shared mass at all.
	m2 := func(src *rng.Source) float64 { return 6 }
	if _, err := EstimateEpsilon(m, m2, Config{Seed: 3, Samples: 1000}); !errors.Is(err, ErrNoBins) {
		t.Errorf("disjoint constants error = %v", err)
	}
}

func TestEstimateEpsilonNilMechanism(t *testing.T) {
	t.Parallel()
	m := func(src *rng.Source) float64 { return 0 }
	if _, err := EstimateEpsilon(nil, m, Config{}); !errors.Is(err, ErrNilMechanism) {
		t.Errorf("nil first: %v", err)
	}
	if _, err := EstimateEpsilon(m, nil, Config{}); !errors.Is(err, ErrNilMechanism) {
		t.Errorf("nil second: %v", err)
	}
}

func TestEstimateEpsilonDiscreteNil(t *testing.T) {
	t.Parallel()
	m := func(src *rng.Source) int64 { return 0 }
	if _, err := EstimateEpsilonDiscrete(nil, m, Config{}); !errors.Is(err, ErrNilMechanism) {
		t.Errorf("nil first: %v", err)
	}
}
