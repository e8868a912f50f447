package dp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

func TestNewExponentialValidation(t *testing.T) {
	t.Parallel()
	src := rng.New(1)
	if _, err := NewExponential(0, 1, src); !errors.Is(err, ErrEpsilon) {
		t.Errorf("eps=0: %v", err)
	}
	if _, err := NewExponential(1, 0, src); !errors.Is(err, ErrSensitivity) {
		t.Errorf("sens=0: %v", err)
	}
	if _, err := NewExponential(1, 1, nil); !errors.Is(err, ErrNilSource) {
		t.Errorf("nil src: %v", err)
	}
}

func TestExponentialEmptyDomain(t *testing.T) {
	t.Parallel()
	m, err := NewExponential(1, 1, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SelectLSE(nil); !errors.Is(err, ErrEmptyDomain) {
		t.Errorf("SelectLSE(nil): %v", err)
	}
	if _, err := m.Probabilities(nil); !errors.Is(err, ErrEmptyDomain) {
		t.Errorf("Probabilities(nil): %v", err)
	}
}

func TestExponentialRejectsNaNUtility(t *testing.T) {
	t.Parallel()
	m, err := NewExponential(1, 1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SelectLSE([]float64{0, math.NaN()}); err == nil {
		t.Error("SelectLSE accepted NaN utility")
	}
	if _, err := m.Probabilities([]float64{math.NaN()}); err == nil {
		t.Error("Probabilities accepted NaN utility")
	}
}

func TestProbabilitiesExactSoftmax(t *testing.T) {
	t.Parallel()
	m, err := NewExponential(2, 1, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	utilities := []float64{0, 1, 2}
	probs, err := m.Probabilities(utilities)
	if err != nil {
		t.Fatal(err)
	}
	// scale = eps/(2Δu) = 1; softmax of (0,1,2).
	var norm float64
	want := make([]float64, 3)
	for i, u := range utilities {
		want[i] = math.Exp(u)
		norm += want[i]
	}
	var sum float64
	for i := range probs {
		want[i] /= norm
		if math.Abs(probs[i]-want[i]) > 1e-12 {
			t.Errorf("probs[%d] = %v, want %v", i, probs[i], want[i])
		}
		sum += probs[i]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestProbabilitiesStableForHugeUtilities(t *testing.T) {
	t.Parallel()
	m, err := NewExponential(1, 1, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	probs, err := m.Probabilities([]float64{1e6, 1e6 - 2, -1e6})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("probs[%d] = %v not finite", i, p)
		}
	}
	if probs[0] < probs[1] || probs[1] < probs[2] {
		t.Errorf("probabilities not ordered by utility: %v", probs)
	}
}

func TestSelectLSEMatchesProbabilities(t *testing.T) {
	t.Parallel()
	m, err := NewExponential(1, 1, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	utilities := []float64{2, 2, 0}
	want, err := m.Probabilities(utilities)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300000
	counts := make([]int, len(utilities))
	for i := 0; i < n; i++ {
		idx, probs, err := m.SelectLSE(utilities)
		if err != nil {
			t.Fatal(err)
		}
		if len(probs) != len(utilities) {
			t.Fatal("SelectLSE returned wrong probability vector length")
		}
		counts[idx]++
	}
	for i := range utilities {
		got := float64(counts[i]) / n
		if math.Abs(got-want[i]) > 0.01 {
			t.Errorf("candidate %d: empirical %v, want %v", i, got, want[i])
		}
	}
}

// unimodal arranges magnitudes into a utility vector that climbs to its
// maximum at index peak and falls after it: the values before the peak
// ascend, the values after it descend, and the largest sits on it. Equal
// magnitudes make plateaus, at the peak too.
func unimodal(magnitudes []float64, peak int) []float64 {
	u := append([]float64(nil), magnitudes...)
	sort.Float64s(u)
	out := make([]float64, len(u))
	copy(out, u[:peak])
	out[peak] = u[len(u)-1]
	for i, v := range u[peak : len(u)-1] {
		out[len(u)-1-i] = v
	}
	return out
}

// checkFastAgainstLSE draws one candidate from each mechanism — mFast
// through SelectFast over the function form of utilities, mLSE through
// SelectLSE over the vector — and requires the same index, a window that
// is exactly the span a linear scan of the float predicate finds, the
// window's probabilities equal to SelectLSE's bit for bit, and an exact 0
// from SelectLSE for every candidate outside it. It returns the scratch
// and how many candidates the window left out.
func checkFastAgainstLSE(t *testing.T, label string, mFast, mLSE *Exponential, utilities []float64, peak int, scratch []float64) ([]float64, int) {
	t.Helper()
	fastIdx, window, err := mFast.SelectFast(len(utilities), peak, func(i int) float64 { return utilities[i] }, scratch)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	lseIdx, probs, err := mLSE.SelectLSE(utilities)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if fastIdx != lseIdx {
		t.Fatalf("%s: SelectFast chose %d, SelectLSE chose %d", label, fastIdx, lseIdx)
	}
	scale := mLSE.epsilon / (2 * mLSE.utilitySens)
	first, last := -1, -1
	for i, u := range utilities {
		if float64(scale*u)-scale*utilities[peak] < expZeroBelow {
			if probs[i] != 0 {
				t.Fatalf("%s: candidate %d is outside the window but SelectLSE gives it %v", label, i, probs[i])
			}
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
	}
	if len(window) != last-first+1 {
		t.Fatalf("%s: window holds %d candidates, the linear scan finds [%d,%d]", label, len(window), first, last)
	}
	for i, p := range window {
		if math.Float64bits(p) != math.Float64bits(probs[first+i]) {
			t.Fatalf("%s: probability %d differs: %v vs %v", label, first+i, p, probs[first+i])
		}
	}
	return window, len(utilities) - len(window)
}

// TestSelectFastMatchesSelectLSE asserts the windowed sampler makes
// exactly the choices SelectLSE makes given identical RNG states — the
// two share the inverse-CDF arithmetic operation for operation — on
// small unimodal domains whose every candidate stays inside the window.
func TestSelectFastMatchesSelectLSE(t *testing.T) {
	t.Parallel()
	mFast, err := NewExponential(1.2, 1, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	mLSE, err := NewExponential(1.2, 1, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(22)
	var scratch []float64
	for trial := 0; trial < 2000; trial++ {
		magnitudes := make([]float64, 1+r.Intn(40))
		for i := range magnitudes {
			magnitudes[i] = -float64(r.Intn(50))
		}
		peak := r.Intn(len(magnitudes))
		var outside int
		scratch, outside = checkFastAgainstLSE(t, fmt.Sprintf("trial %d", trial), mFast, mLSE, unimodal(magnitudes, peak), peak, scratch)
		if outside != 0 {
			t.Fatalf("trial %d: %d candidates fell outside the window of a domain spanning 50 units", trial, outside)
		}
	}
}

// TestSelectFastElisionIsExact drives SelectFast across the exact-zero
// cutoff: unimodal utilities spread over 0 … −1e7 (the span of balance
// utilities on a multi-million-edge side), clustered around the cutoff
// itself, shaped like a balance utility, and with −Inf tails, at the ε
// values the pipeline runs and with the peak anywhere from the first
// candidate to the last — at either end one side of the window is empty.
// The chosen index, the window's extent, every bit of its probabilities
// and the position of the RNG stream must equal what SelectLSE, which
// calls math.Exp on every candidate, produces.
func TestSelectFastElisionIsExact(t *testing.T) {
	t.Parallel()
	if got := math.Exp(expZeroBelow); got != 0 {
		t.Fatalf("math.Exp(%v) = %v, want exactly 0: the elision cutoff is not safe on this target", float64(expZeroBelow), got)
	}
	for _, eps := range []float64{0.01, 0.1, 2} {
		srcFast, srcLSE := rng.New(31), rng.New(31)
		mFast, err := NewExponential(eps, 1, srcFast)
		if err != nil {
			t.Fatal(err)
		}
		mLSE, err := NewExponential(eps, 1, srcLSE)
		if err != nil {
			t.Fatal(err)
		}
		scale := eps / 2
		r := rng.New(32)
		var scratch []float64
		elided := 0
		for trial := 0; trial < 600; trial++ {
			magnitudes := make([]float64, 2+r.Intn(300))
			for i := range magnitudes {
				switch trial % 4 {
				case 0: // the whole span, log-uniform magnitudes
					magnitudes[i] = -math.Pow(10, 7*r.Float64())
				case 1: // straddling the cutoff: shifted scores in [-760, -740]
					magnitudes[i] = -(740 + 20*r.Float64()) / scale
				case 2: // prefix-sum shape, like a balance utility
					magnitudes[i] = -math.Abs(float64(i)*1e7/float64(len(magnitudes)) - 3e6)
				default: // everything inside the window, many ties
					magnitudes[i] = -float64(r.Intn(50))
				}
			}
			if trial%4 == 1 {
				magnitudes[0] = 0 // the maximum the others are shifted by
			}
			if trial%50 == 7 {
				magnitudes[1] = math.Inf(-1)
			}
			peak := r.Intn(len(magnitudes))
			switch trial % 7 {
			case 0:
				peak = 0
			case 1:
				peak = len(magnitudes) - 1
			}
			var outside int
			scratch, outside = checkFastAgainstLSE(t, fmt.Sprintf("eps=%v trial %d", eps, trial), mFast, mLSE, unimodal(magnitudes, peak), peak, scratch)
			elided += outside
		}
		if elided == 0 {
			t.Errorf("eps=%v: no candidate fell outside a window; the cutoff was never exercised", eps)
		}
		if a, b := srcFast.Uint64(), srcLSE.Uint64(); a != b {
			t.Errorf("eps=%v: RNG streams diverged after the trials: next draws %#x vs %#x", eps, a, b)
		}
	}
}

func TestSelectFastErrors(t *testing.T) {
	t.Parallel()
	src := rng.New(23)
	m, err := NewExponential(1, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	constant := func(v float64) func(int) float64 { return func(int) float64 { return v } }
	if _, _, err := m.SelectFast(0, 0, constant(0), nil); !errors.Is(err, ErrEmptyDomain) {
		t.Errorf("SelectFast over an empty domain: %v", err)
	}
	for _, peak := range []int{-1, 3} {
		if _, _, err := m.SelectFast(3, peak, constant(0), nil); err == nil {
			t.Errorf("SelectFast accepted peak %d of a 3-candidate domain", peak)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, _, err := m.SelectFast(3, 1, constant(v), nil); err == nil {
			t.Errorf("SelectFast accepted a peak utility of %v", v)
		}
	}
	nanBeside := func(i int) float64 {
		if i == 2 {
			return math.NaN()
		}
		return 0
	}
	if _, _, err := m.SelectFast(3, 1, nanBeside, nil); err == nil {
		t.Error("SelectFast accepted NaN utility")
	}
	if a, b := src.Uint64(), rng.New(23).Uint64(); a != b {
		t.Error("a refused call consumed randomness")
	}
}

func TestSelectSingleCandidate(t *testing.T) {
	t.Parallel()
	m, err := NewExponential(1, 1, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	idx, probs, err := m.SelectLSE([]float64{42})
	if err != nil || idx != 0 || len(probs) != 1 || probs[0] != 1 {
		t.Errorf("SelectLSE single = (%d, %v, %v), want (0, [1], nil)", idx, probs, err)
	}
}

// TestExponentialPrivacyRatio verifies the defining DP inequality on a
// tiny domain: perturbing one utility by at most Δu changes any
// candidate's probability by a factor of at most e^ε.
func TestExponentialPrivacyRatio(t *testing.T) {
	t.Parallel()
	const eps = 0.8
	const sens = 1.0
	m, err := NewExponential(eps, sens, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	u1 := []float64{1, 4, 2, 2.5}
	u2 := append([]float64(nil), u1...)
	u2[1] -= sens // adjacent database shifts one utility by Δu
	p1, err := m.Probabilities(u1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.Probabilities(u2)
	if err != nil {
		t.Fatal(err)
	}
	bound := math.Exp(eps)
	for i := range p1 {
		ratio := p1[i] / p2[i]
		if ratio > bound*(1+1e-9) || 1/ratio > bound*(1+1e-9) {
			t.Errorf("candidate %d: ratio %v exceeds e^ε=%v", i, ratio, bound)
		}
	}
}
