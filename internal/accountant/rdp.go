package accountant

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dp"
)

// RDPAccountant tracks cumulative privacy loss in Rényi differential
// privacy at a fixed grid of orders, the composition machinery modern DP
// systems use for Gaussian-heavy workloads: RDP composes by simple
// addition per order, and converts to (ε, δ)-DP at the end via
//
//	ε(δ) = min over orders α of  ε_RDP(α) + ln(1/δ)/(α−1).
//
// For many Gaussian releases this is substantially tighter than the
// advanced composition theorem (see the package tests for the crossover).
// It is safe for concurrent use.
type RDPAccountant struct {
	mu     sync.Mutex
	orders []float64
	eps    []float64
}

// DefaultRDPOrders returns the standard order grid (1+small fractions
// through 64), dense at low orders where small-δ conversions land.
func DefaultRDPOrders() []float64 {
	orders := []float64{1.25, 1.5, 1.75, 2, 2.5, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64}
	return append([]float64(nil), orders...)
}

// NewRDPAccountant returns an accountant over the given orders (nil uses
// DefaultRDPOrders). Orders must all be > 1.
func NewRDPAccountant(orders []float64) (*RDPAccountant, error) {
	if orders == nil {
		orders = DefaultRDPOrders()
	}
	if len(orders) == 0 {
		return nil, fmt.Errorf("accountant: rdp needs at least one order")
	}
	for _, a := range orders {
		if !(a > 1) || math.IsInf(a, 0) || math.IsNaN(a) {
			return nil, fmt.Errorf("accountant: rdp order %v must be > 1 and finite", a)
		}
	}
	return &RDPAccountant{
		orders: append([]float64(nil), orders...),
		eps:    make([]float64, len(orders)),
	}, nil
}

// AddGaussian records one Gaussian release with noise scale sigma and L2
// sensitivity. The Gaussian mechanism is (α, α·Δ²/(2σ²))-RDP for every
// α > 1.
func (a *RDPAccountant) AddGaussian(sigma, l2Sensitivity float64) error {
	if !(sigma > 0) || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return fmt.Errorf("accountant: rdp gaussian sigma %v must be > 0", sigma)
	}
	if !(l2Sensitivity >= 0) || math.IsInf(l2Sensitivity, 0) {
		return fmt.Errorf("accountant: rdp gaussian sensitivity %v must be >= 0", l2Sensitivity)
	}
	base := l2Sensitivity * l2Sensitivity / (2 * sigma * sigma)
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, order := range a.orders {
		a.eps[i] += order * base
	}
	return nil
}

// ToApproxDP converts the accumulated RDP guarantee to (ε, δ)-DP, taking
// the best order.
func (a *RDPAccountant) ToApproxDP(delta float64) (dp.Params, error) {
	if !(delta > 0 && delta < 1) {
		return dp.Params{}, fmt.Errorf("accountant: rdp conversion delta %v must be in (0,1)", delta)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	best := math.Inf(1)
	for i, order := range a.orders {
		candidate := a.eps[i] + math.Log(1/delta)/(order-1)
		if candidate < best {
			best = candidate
		}
	}
	return dp.Params{Epsilon: best, Delta: delta}, nil
}

// GaussianSigmaForBudget inverts the accountant for the uniform case: the
// smallest σ (per unit sensitivity) such that k Gaussian releases compose
// to at most (epsTotal, delta) under RDP. Solved by bisection on σ.
//
// Even infinite σ leaves the conversion term ln(1/δ)/(α−1), smallest at
// the largest default order, so no σ reaches an epsTotal at or below
// ln(1/δ)/(α_max − 1); such a budget fails at once, naming that floor.
func GaussianSigmaForBudget(epsTotal, delta float64, k int) (float64, error) {
	if !(epsTotal > 0) || k <= 0 || !(delta > 0 && delta < 1) {
		return 0, fmt.Errorf("accountant: invalid rdp budget (eps=%v, delta=%v, k=%d)", epsTotal, delta, k)
	}
	maxOrder := 0.0
	for _, a := range DefaultRDPOrders() {
		maxOrder = math.Max(maxOrder, a)
	}
	if floor := math.Log(1/delta) / (maxOrder - 1); epsTotal <= floor {
		return 0, fmt.Errorf("accountant: rdp budget eps=%v is at or below the floor ln(1/delta)/(alpha_max-1) = %.4f for delta=%v and orders up to %v", epsTotal, floor, delta, maxOrder)
	}
	epsFor := func(sigma float64) float64 {
		acc, err := NewRDPAccountant(nil)
		if err != nil {
			return math.Inf(1)
		}
		for i := 0; i < k; i++ {
			if err := acc.AddGaussian(sigma, 1); err != nil {
				return math.Inf(1)
			}
		}
		p, err := acc.ToApproxDP(delta)
		if err != nil {
			return math.Inf(1)
		}
		return p.Epsilon
	}
	lo, hi := 1e-3, 1.0
	for epsFor(hi) > epsTotal {
		hi *= 2
		if hi > 1e12 {
			return 0, fmt.Errorf("accountant: failed to bracket sigma for eps=%v k=%d", epsTotal, k)
		}
	}
	for epsFor(lo) < epsTotal && lo > 1e-9 {
		lo /= 2
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if epsFor(mid) > epsTotal {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
