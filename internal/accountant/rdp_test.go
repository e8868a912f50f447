package accountant

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/dp"
)

func TestNewRDPAccountantValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewRDPAccountant([]float64{}); err == nil {
		t.Error("empty orders accepted")
	}
	if _, err := NewRDPAccountant([]float64{1}); err == nil {
		t.Error("order 1 accepted")
	}
	if _, err := NewRDPAccountant([]float64{0.5}); err == nil {
		t.Error("order < 1 accepted")
	}
	if _, err := NewRDPAccountant([]float64{math.NaN()}); err == nil {
		t.Error("NaN order accepted")
	}
	acc, err := NewRDPAccountant(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.orders) != len(DefaultRDPOrders()) {
		t.Error("nil orders did not use defaults")
	}
}

func TestRDPGaussianSingleRelease(t *testing.T) {
	t.Parallel()
	// One Gaussian with sigma calibrated classically for (eps, delta)
	// must convert back to at most ~eps under RDP (RDP conversion is a
	// different bound, so allow slack but require the same ballpark).
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	sigma, err := dp.ClassicalGaussianSigma(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewRDPAccountant(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.AddGaussian(sigma, 1); err != nil {
		t.Fatal(err)
	}
	got, err := acc.ToApproxDP(p.Delta)
	if err != nil {
		t.Fatal(err)
	}
	// The generic RDP-to-DP conversion is slightly loose for a single
	// release; it must still land within ~10% of the classical claim.
	if got.Epsilon > p.Epsilon*1.1 {
		t.Errorf("RDP conversion %v far exceeds classical claim %v", got.Epsilon, p.Epsilon)
	}
	if got.Epsilon < p.Epsilon/10 {
		t.Errorf("RDP conversion %v implausibly small", got.Epsilon)
	}
}

func TestRDPAdditivity(t *testing.T) {
	t.Parallel()
	a1, err := NewRDPAccountant(nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewRDPAccountant(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := a1.AddGaussian(10, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := a2.AddGaussian(5, 1); err != nil { // 4 at sigma 10 == 1 at sigma 5 in RDP
		t.Fatal(err)
	}
	for i, order := range a1.orders {
		if math.Abs(a1.eps[i]-a2.eps[i]) > 1e-12 {
			t.Fatalf("order %v: 4×σ10 RDP %v != 1×σ5 RDP %v", order, a1.eps[i], a2.eps[i])
		}
	}
}

func TestRDPBeatsAdvancedCompositionForManyGaussians(t *testing.T) {
	t.Parallel()
	// k Gaussian queries, each individually (eps0, delta0)-DP. Compare
	// total ε at final delta via RDP vs advanced composition.
	const k = 200
	eps0 := 0.05
	delta0 := 1e-8
	sigma, err := dp.ClassicalGaussianSigma(dp.Params{Epsilon: eps0, Delta: delta0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewRDPAccountant(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := acc.AddGaussian(sigma, 1); err != nil {
			t.Fatal(err)
		}
	}
	const finalDelta = 1e-5
	rdp, err := acc.ToApproxDP(finalDelta)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := ComposeAdvanced(dp.Params{Epsilon: eps0, Delta: delta0}, k, finalDelta-float64(k)*delta0)
	if err != nil {
		t.Fatal(err)
	}
	if rdp.Epsilon >= adv.Epsilon {
		t.Errorf("RDP %v not tighter than advanced composition %v at k=%d", rdp.Epsilon, adv.Epsilon, k)
	}
}

func TestRDPValidationErrors(t *testing.T) {
	t.Parallel()
	acc, err := NewRDPAccountant(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.AddGaussian(0, 1); err == nil {
		t.Error("sigma=0 accepted")
	}
	if err := acc.AddGaussian(1, math.Inf(1)); err == nil {
		t.Error("inf sensitivity accepted")
	}
	if _, err := acc.ToApproxDP(0); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := acc.ToApproxDP(1); err == nil {
		t.Error("delta=1 accepted")
	}
}

func TestRDPConcurrentAdds(t *testing.T) {
	t.Parallel()
	acc, err := NewRDPAccountant(nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := acc.AddGaussian(10, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// RDP at order 2 should be exactly n * 2/(2*100): no lost add.
	want := float64(workers*perWorker) * 2 / 200
	for i, o := range acc.orders {
		if o == 2 && math.Abs(acc.eps[i]-want) > 1e-9 {
			t.Errorf("order-2 RDP = %v, want %v", acc.eps[i], want)
		}
	}
}

func TestGaussianSigmaForBudget(t *testing.T) {
	t.Parallel()
	const epsTotal = 1.0
	const delta = 1e-5
	const k = 50
	sigma, err := GaussianSigmaForBudget(epsTotal, delta, k)
	if err != nil {
		t.Fatal(err)
	}
	// The returned sigma must satisfy the budget...
	acc, err := NewRDPAccountant(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := acc.AddGaussian(sigma, 1); err != nil {
			t.Fatal(err)
		}
	}
	got, err := acc.ToApproxDP(delta)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epsilon > epsTotal*1.001 {
		t.Errorf("sigma %v composes to %v > %v", sigma, got.Epsilon, epsTotal)
	}
	// ...and be nearly minimal.
	acc2, err := NewRDPAccountant(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := acc2.AddGaussian(sigma*0.95, 1); err != nil {
			t.Fatal(err)
		}
	}
	tighter, err := acc2.ToApproxDP(delta)
	if err != nil {
		t.Fatal(err)
	}
	if tighter.Epsilon <= epsTotal {
		t.Errorf("sigma not minimal: 0.95σ still satisfies the budget (%v)", tighter.Epsilon)
	}
	if _, err := GaussianSigmaForBudget(0, delta, k); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := GaussianSigmaForBudget(1, delta, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestGaussianSigmaForBudgetFloor: at δ = 1e-5 the default orders (up to
// 64) cannot convert below ln(1e5)/63 ≈ 0.1827, however large σ; a
// budget under that floor says so instead of failing to bracket σ.
func TestGaussianSigmaForBudgetFloor(t *testing.T) {
	t.Parallel()
	_, err := GaussianSigmaForBudget(0.18, 1e-5, 5)
	if err == nil || !strings.Contains(err.Error(), "floor") || !strings.Contains(err.Error(), "0.1827") {
		t.Errorf("eps=0.18: %v, want the floor named", err)
	}
	sigma, err := GaussianSigmaForBudget(0.19, 1e-5, 5)
	if err != nil || !(sigma > 0) {
		t.Errorf("eps=0.19: sigma %v, %v", sigma, err)
	}
}
