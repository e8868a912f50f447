package dp

import (
	"errors"
	"math"
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
	if _, err := m.Select(nil); !errors.Is(err, ErrEmptyDomain) {
		t.Errorf("Select(nil): %v", err)
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
	if _, err := m.Select([]float64{0, math.NaN()}); err == nil {
		t.Error("Select accepted NaN utility")
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

func TestSelectMatchesProbabilities(t *testing.T) {
	t.Parallel()
	m, err := NewExponential(1.5, 2, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	utilities := []float64{0, 3, 5, 1}
	want, err := m.Probabilities(utilities)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	counts := make([]int, len(utilities))
	for i := 0; i < n; i++ {
		idx, err := m.Select(utilities)
		if err != nil {
			t.Fatal(err)
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

// TestSelectFastMatchesSelectLSE asserts the allocation-free sampler
// makes exactly the choices SelectLSE makes given identical RNG states —
// the two share the inverse-CDF arithmetic operation for operation.
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
		utilities := make([]float64, 2+r.Intn(40))
		for i := range utilities {
			utilities[i] = -float64(r.Intn(50))
		}
		var fastIdx int
		fastIdx, scratch, err = mFast.SelectFast(utilities, scratch)
		if err != nil {
			t.Fatal(err)
		}
		lseIdx, probs, err := mLSE.SelectLSE(utilities)
		if err != nil {
			t.Fatal(err)
		}
		if fastIdx != lseIdx {
			t.Fatalf("trial %d: SelectFast chose %d, SelectLSE chose %d", trial, fastIdx, lseIdx)
		}
		for i := range probs {
			if scratch[i] != probs[i] {
				t.Fatalf("trial %d: probability %d differs: %v vs %v", trial, i, scratch[i], probs[i])
			}
		}
	}
}

// TestSelectFastElisionIsExact drives SelectFast across the exact-zero
// cutoff: utilities spread over 0 … −1e7 (the span of balance utilities on
// a multi-million-edge side), clustered around the cutoff itself, and with
// ±Inf entries, at the ε values the pipeline runs. The chosen index, every
// bit of the probability vector and the position of the RNG stream must
// equal SelectLSE's, which calls math.Exp on every candidate.
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
			utilities := make([]float64, 2+r.Intn(300))
			for i := range utilities {
				switch trial % 4 {
				case 0: // the whole span, log-uniform magnitudes
					utilities[i] = -math.Pow(10, 7*r.Float64())
				case 1: // straddling the cutoff: shifted scores in [-760, -740]
					utilities[i] = -(740 + 20*r.Float64()) / scale
				case 2: // descending prefix-sum shape, like a balance utility
					utilities[i] = -math.Abs(float64(i)*1e7/float64(len(utilities)) - 3e6)
				default:
					utilities[i] = -float64(r.Intn(50))
				}
			}
			if trial%4 == 1 {
				utilities[r.Intn(len(utilities))] = 0 // the maximum the others are shifted by
			}
			if trial%50 == 7 {
				utilities[0] = math.Inf(-1)
			}
			if trial%200 == 9 {
				utilities[1] = math.Inf(1)
			}
			var fastIdx int
			fastIdx, scratch, err = mFast.SelectFast(utilities, scratch)
			if err != nil {
				t.Fatal(err)
			}
			lseIdx, probs, err := mLSE.SelectLSE(utilities)
			if err != nil {
				t.Fatal(err)
			}
			if fastIdx != lseIdx {
				t.Fatalf("eps=%v trial %d: SelectFast chose %d, SelectLSE chose %d", eps, trial, fastIdx, lseIdx)
			}
			for i := range probs {
				if math.Float64bits(scratch[i]) != math.Float64bits(probs[i]) {
					t.Fatalf("eps=%v trial %d: probability %d differs: %v vs %v", eps, trial, i, scratch[i], probs[i])
				}
				if probs[i] == 0 {
					elided++
				}
			}
		}
		if elided == 0 {
			t.Errorf("eps=%v: no candidate reached probability 0; the cutoff was never exercised", eps)
		}
		if a, b := srcFast.Uint64(), srcLSE.Uint64(); a != b {
			t.Errorf("eps=%v: RNG streams diverged after the trials: next draws %#x vs %#x", eps, a, b)
		}
	}
}

func TestSelectFastErrors(t *testing.T) {
	t.Parallel()
	m, err := NewExponential(1, 1, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SelectFast(nil, nil); !errors.Is(err, ErrEmptyDomain) {
		t.Errorf("SelectFast(nil): %v", err)
	}
	if _, _, err := m.SelectFast([]float64{0, math.NaN()}, nil); err == nil {
		t.Error("SelectFast accepted NaN utility")
	}
}

func TestSelectSingleCandidate(t *testing.T) {
	t.Parallel()
	m, err := NewExponential(1, 1, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := m.Select([]float64{42})
	if err != nil || idx != 0 {
		t.Errorf("Select single = (%d, %v), want (0, nil)", idx, err)
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
