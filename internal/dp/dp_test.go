package dp

import (
	"errors"
	"math"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		p       Params
		wantErr error
	}{
		{name: "valid pure", p: Params{Epsilon: 0.5}, wantErr: nil},
		{name: "valid approx", p: Params{Epsilon: 1.5, Delta: 1e-5}, wantErr: nil},
		{name: "zero epsilon", p: Params{Epsilon: 0}, wantErr: ErrEpsilon},
		{name: "negative epsilon", p: Params{Epsilon: -1}, wantErr: ErrEpsilon},
		{name: "inf epsilon", p: Params{Epsilon: math.Inf(1)}, wantErr: ErrEpsilon},
		{name: "nan epsilon", p: Params{Epsilon: math.NaN()}, wantErr: ErrEpsilon},
		{name: "negative delta", p: Params{Epsilon: 1, Delta: -0.1}, wantErr: ErrDelta},
		{name: "delta one", p: Params{Epsilon: 1, Delta: 1}, wantErr: ErrDelta},
		{name: "nan delta", p: Params{Epsilon: 1, Delta: math.NaN()}, wantErr: ErrDelta},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			err := tc.p.Validate()
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestParamsPureAndString(t *testing.T) {
	t.Parallel()
	if !(Params{Epsilon: 1}).Pure() {
		t.Error("delta=0 should be pure")
	}
	if (Params{Epsilon: 1, Delta: 1e-6}).Pure() {
		t.Error("delta>0 should not be pure")
	}
	if s := (Params{Epsilon: 0.5}).String(); s != "(ε=0.5)" {
		t.Errorf("String() = %q", s)
	}
	if s := (Params{Epsilon: 0.5, Delta: 1e-05}).String(); s != "(ε=0.5, δ=1e-05)" {
		t.Errorf("String() = %q", s)
	}
}

func TestClassicalGaussianSigma(t *testing.T) {
	t.Parallel()
	p := Params{Epsilon: 0.5, Delta: 1e-5}
	sigma, err := ClassicalGaussianSigma(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * math.Sqrt(2*math.Log(1.25/1e-5)) / 0.5
	if math.Abs(sigma-want) > 1e-9 {
		t.Errorf("sigma = %v, want %v", sigma, want)
	}
}

func TestClassicalGaussianErrors(t *testing.T) {
	t.Parallel()
	if _, err := ClassicalGaussianSigma(Params{Epsilon: 1.5, Delta: 1e-5}, 1); !errors.Is(err, ErrClassicalEpsilonRange) {
		t.Errorf("eps>=1: %v", err)
	}
	if _, err := ClassicalGaussianSigma(Params{Epsilon: 0.5}, 1); !errors.Is(err, ErrDeltaZero) {
		t.Errorf("delta=0: %v", err)
	}
	if _, err := ClassicalGaussianSigma(Params{Epsilon: 0.5, Delta: 1e-5}, -1); !errors.Is(err, ErrSensitivity) {
		t.Errorf("bad sens: %v", err)
	}
}

func TestAnalyticTighterThanClassical(t *testing.T) {
	t.Parallel()
	for _, eps := range []float64{0.1, 0.3, 0.5, 0.9, 0.999} {
		p := Params{Epsilon: eps, Delta: 1e-5}
		classical, err := ClassicalGaussianSigma(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		analytic, err := AnalyticGaussianSigma(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if analytic >= classical {
			t.Errorf("eps=%v: analytic σ %v not tighter than classical %v", eps, analytic, classical)
		}
	}
}

func TestAnalyticGaussianSatisfiesDelta(t *testing.T) {
	t.Parallel()
	for _, eps := range []float64{0.1, 0.5, 1, 2, 5} {
		p := Params{Epsilon: eps, Delta: 1e-6}
		sigma, err := AnalyticGaussianSigma(p, 2.5)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		got := gaussianDelta(eps, 2.5, sigma)
		if got > p.Delta*1.0001 {
			t.Errorf("eps=%v: δ(σ)=%v exceeds target %v", eps, got, p.Delta)
		}
		// And σ is minimal up to bisection tolerance: slightly smaller σ
		// must violate the target.
		if gaussianDelta(eps, 2.5, sigma*0.99) <= p.Delta {
			t.Errorf("eps=%v: σ not minimal", eps)
		}
	}
}

func TestGaussianDeltaMonotoneInSigma(t *testing.T) {
	t.Parallel()
	prev := math.Inf(1)
	for sigma := 0.5; sigma < 50; sigma *= 1.5 {
		d := gaussianDelta(0.5, 1, sigma)
		if d > prev {
			t.Fatalf("gaussianDelta not decreasing at sigma=%v", sigma)
		}
		prev = d
	}
}

func TestGaussianEpsilonInvertsAnalyticSigma(t *testing.T) {
	t.Parallel()
	// For any (eps, delta): sigma = AnalyticGaussianSigma(eps) then
	// GaussianEpsilon(sigma) must return about eps.
	for _, eps := range []float64{0.2, 0.7, 1.5, 3} {
		p := Params{Epsilon: eps, Delta: 1e-6}
		sigma, err := AnalyticGaussianSigma(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GaussianEpsilon(sigma, 2, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-eps)/eps > 1e-3 {
			t.Errorf("eps=%v: round trip gave %v", eps, got)
		}
	}
}

func TestGaussianEpsilonMonotoneInSigma(t *testing.T) {
	t.Parallel()
	prev := math.Inf(1)
	for sigma := 1.0; sigma < 100; sigma *= 2 {
		eps, err := GaussianEpsilon(sigma, 1, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		if eps > prev {
			t.Fatalf("epsilon increased with sigma at %v", sigma)
		}
		prev = eps
	}
}

func TestGaussianEpsilonValidation(t *testing.T) {
	t.Parallel()
	if _, err := GaussianEpsilon(0, 1, 1e-5); err == nil {
		t.Error("sigma=0 accepted")
	}
	if _, err := GaussianEpsilon(1, 0, 1e-5); err == nil {
		t.Error("sens=0 accepted")
	}
	if _, err := GaussianEpsilon(1, 1, 0); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := GaussianEpsilon(1, 1, 1); err == nil {
		t.Error("delta=1 accepted")
	}
}
