package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dp"
	"repro/internal/rng"
)

func TestNoiseMechanismStrings(t *testing.T) {
	t.Parallel()
	if MechGaussian.String() != "gaussian" || MechLaplace.String() != "laplace" || MechGeometric.String() != "geometric" {
		t.Error("unexpected mechanism names")
	}
	if NoiseMechanism(0).Valid() || !MechGeometric.Valid() {
		t.Error("Valid misclassifies mechanisms")
	}
}

// TestReleaseCountGaussianIsCountPlusDraw pins the Gaussian count to
// its definition: the true count plus one ziggurat draw at the
// calibrated σ, labelled gaussian.
func TestReleaseCountGaussianIsCountPlusDraw(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.9, Delta: 1e-5}
	rel, err := ReleaseCount(tree, 2, ModelCells, classical(p), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	sens, err := Sensitivity(tree, 2, ModelCells)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := Sigma(p, sens, CalibrationClassical)
	if err != nil {
		t.Fatal(err)
	}
	var z [1]float64
	rng.New(4).NormalsSigma(z[:], sigma)
	if want := float64(tree.NumEdges()) + z[0]; rel.NoisyCount != want || rel.Sigma != sigma {
		t.Errorf("gaussian count = %v (σ %v), want %v (σ %v)", rel.NoisyCount, rel.Sigma, want, sigma)
	}
	if rel.MechName != "gaussian" || rel.CalibName != "classical" || rel.Delta != p.Delta {
		t.Errorf("labels = %q/%q/δ=%v", rel.MechName, rel.CalibName, rel.Delta)
	}
}

func TestReleaseCountLaplace(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.9} // pure DP: no delta needed
	rel, err := ReleaseCount(tree, 2, ModelCells, Noise{Mech: MechLaplace, Budget: p}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if rel.MechName != "laplace" || rel.CalibName != "pure" || rel.Delta != 0 {
		t.Errorf("release = %+v", rel)
	}
	// Sigma reports the standard deviation b√2 of Laplace(b = Δℓ/ε).
	if want := float64(rel.Sensitivity) / p.Epsilon * math.Sqrt2; rel.Sigma != want {
		t.Errorf("laplace sigma = %v, want b√2 = %v", rel.Sigma, want)
	}
}

func TestReleaseCountGeometricIntegral(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.9}
	rel, err := ReleaseCount(tree, 2, ModelCells, Noise{Mech: MechGeometric, Budget: p}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if rel.NoisyCount != math.Trunc(rel.NoisyCount) {
		t.Errorf("geometric release non-integral: %v", rel.NoisyCount)
	}
	if rel.MechName != "geometric" {
		t.Errorf("MechName = %q", rel.MechName)
	}
}

func TestReleaseCountPureErrors(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.9}
	if _, err := ReleaseCount(tree, 2, ModelCells, Noise{Mech: NoiseMechanism(9), Budget: p}, rng.New(1)); !errors.Is(err, ErrBadMechanism) {
		t.Errorf("bad mech: %v", err)
	}
	if _, err := ReleaseCount(nil, 2, ModelCells, Noise{Mech: MechLaplace, Budget: p}, rng.New(1)); !errors.Is(err, ErrNilTree) {
		t.Errorf("nil tree: %v", err)
	}
	if _, err := ReleaseCount(tree, 2, ModelCells, Noise{Mech: MechLaplace, Budget: p}, nil); !errors.Is(err, dp.ErrNilSource) {
		t.Errorf("nil src: %v", err)
	}
	if _, err := ReleaseCount(tree, 2, ModelCells, Noise{Mech: MechLaplace, Budget: dp.Params{}}, rng.New(1)); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := ReleaseCount(tree, 99, ModelCells, Noise{Mech: MechLaplace, Budget: p}, rng.New(1)); err == nil {
		t.Error("bad level accepted")
	}
}

// TestNoiseDrawMoments holds each mechanism's draws, taken through
// ReleaseCount at a level's resolved scale, to the law its labels claim:
// zero mean, the reported standard deviation (σ, b√2, √(2α)/(1−α)) and the
// closed-form E|noise| ExpectedRER forecasts, with the scale itself
// checked against the textbook formula at Δℓ. Geometric draws stay
// integral.
func TestNoiseDrawMoments(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	const level = 2
	sens, err := Sensitivity(tree, level, ModelCells)
	if err != nil {
		t.Fatal(err)
	}
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	delta := float64(sens)
	sigma := delta * math.Sqrt(2*math.Log(1.25/p.Delta)) / p.Epsilon
	b := delta / p.Epsilon
	alpha := math.Exp(-p.Epsilon / delta)
	cases := []struct {
		n         Noise
		wantSigma float64
		wantAbs   float64
	}{
		{classical(p), sigma, sigma * math.Sqrt(2/math.Pi)},
		{Noise{Mech: MechLaplace, Budget: p}, b * math.Sqrt2, b},
		{Noise{Mech: MechGeometric, Budget: p}, math.Sqrt(2*alpha) / (1 - alpha), 2 * alpha / (1 - alpha*alpha)},
	}
	for i, c := range cases {
		c, seed := c, uint64(40+i)
		t.Run(c.n.Mech.String(), func(t *testing.T) {
			t.Parallel()
			rer, err := ExpectedRER(tree, level, ModelCells, c.n)
			if err != nil {
				t.Fatal(err)
			}
			if got := rer * float64(tree.NumEdges()); math.Abs(got-c.wantAbs) > 1e-9*c.wantAbs {
				t.Errorf("forecast E|noise| = %v, want %v", got, c.wantAbs)
			}
			src := rng.New(seed)
			const draws = 200000
			var sum, sumAbs, sumSq float64
			for i := 0; i < draws; i++ {
				rel, err := ReleaseCount(tree, level, ModelCells, c.n, src)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(rel.Sigma-c.wantSigma) > 1e-9*c.wantSigma {
					t.Fatalf("reported sigma = %v, want %v", rel.Sigma, c.wantSigma)
				}
				x := rel.NoisyCount - float64(rel.TrueCount)
				if c.n.Mech == MechGeometric && x != math.Trunc(x) {
					t.Fatalf("geometric draw %v is not integral", x)
				}
				sum += x
				sumAbs += math.Abs(x)
				sumSq += x * x
			}
			if mean := sum / draws; math.Abs(mean) > 0.02*c.wantSigma {
				t.Errorf("mean noise = %v, want about 0 (σ = %v)", mean, c.wantSigma)
			}
			if sd := math.Sqrt(sumSq / draws); math.Abs(sd-c.wantSigma) > 0.02*c.wantSigma {
				t.Errorf("sample sd = %v, want about %v", sd, c.wantSigma)
			}
			if meanAbs := sumAbs / draws; math.Abs(meanAbs-c.wantAbs) > 0.03*c.wantAbs {
				t.Errorf("E|noise| = %v, want about %v", meanAbs, c.wantAbs)
			}
		})
	}
}

func TestExpectedRERLaplaceNoiseFormula(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.5}
	sens, err := Sensitivity(tree, 2, ModelCells)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExpectedRER(tree, 2, ModelCells, Noise{Mech: MechLaplace, Budget: p})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(sens) / 0.5 / float64(tree.Graph().NumEdges())
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("laplace E[RER] = %v, want %v", got, want)
	}
}

func TestExpectedRERNoiseEmpiricalAgreement(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.7}
	for _, mech := range []NoiseMechanism{MechLaplace, MechGeometric} {
		want, err := ExpectedRER(tree, 2, ModelCells, Noise{Mech: mech, Budget: p})
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(77)
		const trials = 30000
		var sum float64
		for i := 0; i < trials; i++ {
			rel, err := ReleaseCount(tree, 2, ModelCells, Noise{Mech: mech, Budget: p}, src)
			if err != nil {
				t.Fatal(err)
			}
			sum += rel.RER
		}
		got := sum / trials
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%v: empirical %v vs expected %v", mech, got, want)
		}
	}
}

func TestExpectedRERNoiseErrors(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	if _, err := ExpectedRER(tree, 2, ModelCells, Noise{Mech: NoiseMechanism(9), Budget: dp.Params{Epsilon: 1}}); !errors.Is(err, ErrBadMechanism) {
		t.Errorf("bad mech: %v", err)
	}
	if _, err := ExpectedRER(nil, 2, ModelCells, Noise{Mech: MechLaplace, Budget: dp.Params{Epsilon: 1}}); !errors.Is(err, ErrNilTree) {
		t.Errorf("nil tree: %v", err)
	}
	if _, err := ExpectedRER(tree, 2, ModelCells, Noise{Mech: MechLaplace, Budget: dp.Params{}}); err == nil {
		t.Error("bad params accepted")
	}
}

// TestGaussianVsLaplaceCrossover: for a scalar count, Laplace (pure DP)
// needs less noise than the classically calibrated Gaussian at the same
// ε — the crossover the A7 ablation demonstrates.
func TestGaussianVsLaplaceCrossover(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	gauss, err := ExpectedRER(tree, 2, ModelCells, classical(p))
	if err != nil {
		t.Fatal(err)
	}
	lap, err := ExpectedRER(tree, 2, ModelCells, Noise{Mech: MechLaplace, Budget: p})
	if err != nil {
		t.Fatal(err)
	}
	if lap >= gauss {
		t.Errorf("laplace E[RER] %v not below classical gaussian %v for scalar count", lap, gauss)
	}
}

// TestNoiseValidate walks the spec's rules: they are checked in one
// place, so Validate, ReleaseCount, ReleaseCells and ExpectedRER must
// all refuse the same specs.
func TestNoiseValidate(t *testing.T) {
	t.Parallel()
	tree := testTree(t)
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	cases := []struct {
		name string
		n    Noise
		want error // nil: valid; errAny: any error
	}{
		{"classical", classical(p), nil},
		{"analytic eps=2", Noise{Mech: MechGaussian, Calib: CalibrationAnalytic, Budget: dp.Params{Epsilon: 2, Delta: 1e-5}}, nil},
		{"laplace, no calibration, delta=0", Noise{Mech: MechLaplace, Budget: dp.Params{Epsilon: 2}}, nil},
		{"geometric", Noise{Mech: MechGeometric, Budget: p}, nil},
		{"external", external(2.5, p), nil},
		{"external sigma=0, no budget", external(0, dp.Params{}), nil},
		{"no mechanism", Noise{Calib: CalibrationClassical, Budget: p}, ErrBadMechanism},
		{"unknown mechanism", Noise{Mech: NoiseMechanism(9), Budget: p}, ErrBadMechanism},
		{"external laplace", Noise{Mech: MechLaplace, External: true, Sigma: 2.5, Budget: p}, ErrBadMechanism},
		{"external geometric", Noise{Mech: MechGeometric, External: true, Sigma: 2.5, Budget: p}, ErrBadMechanism},
		{"external negative sigma", external(-1, p), errAny},
		{"external NaN sigma", external(math.NaN(), p), errAny},
		{"external infinite sigma", external(math.Inf(1), p), errAny},
		{"gaussian without calibration", Noise{Mech: MechGaussian, Budget: p}, ErrBadCalib},
		{"gaussian delta=0", classical(dp.Params{Epsilon: 0.5}), errAny},
		{"classical eps=2", classical(dp.Params{Epsilon: 2, Delta: 1e-5}), dp.ErrClassicalEpsilonRange},
		{"laplace eps=0", Noise{Mech: MechLaplace}, dp.ErrEpsilon},
		{"geometric eps=0", Noise{Mech: MechGeometric}, dp.ErrEpsilon},
	}
	for _, c := range cases {
		var cells CellRelease
		_, countErr := ReleaseCount(tree, 1, ModelCells, c.n, rng.New(1))
		_, rerErr := ExpectedRER(tree, 1, ModelCells, c.n)
		for what, err := range map[string]error{
			"Validate":     c.n.Validate(),
			"ReleaseCount": countErr,
			"ReleaseCells": ReleaseCells(&cells, tree, 1, c.n, rng.New(1), 1),
			"ExpectedRER":  rerErr,
		} {
			switch {
			case c.want == nil && err != nil:
				t.Errorf("%s: %s refused a valid spec: %v", c.name, what, err)
			case c.want == errAny && err == nil:
				t.Errorf("%s: %s accepted the spec", c.name, what)
			case c.want != nil && c.want != errAny && !errors.Is(err, c.want):
				t.Errorf("%s: %s = %v, want %v", c.name, what, err, c.want)
			}
		}
	}
}

var errAny = errors.New("any error")

// TestPureCellRelease covers the δ = 0 histogram: labels, the reported
// standard deviation, geometric integrality, and that the chunked fill
// is bit-identical at one and four workers.
func TestPureCellRelease(t *testing.T) {
	t.Parallel()
	tree := deepTree(t, 4)
	p := dp.Params{Epsilon: 0.7, Delta: 1e-5}
	for _, mech := range []NoiseMechanism{MechLaplace, MechGeometric} {
		n := Noise{Mech: mech, Budget: p}
		rel, err := releaseCells(tree, 0, n, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		if rel.MechName != mech.String() || rel.CalibName != "pure" || rel.Delta != 0 || rel.Epsilon != p.Epsilon {
			t.Errorf("%v: labels = %q/%q/(%v, %v)", mech, rel.MechName, rel.CalibName, rel.Epsilon, rel.Delta)
		}
		count, err := ReleaseCount(tree, 0, ModelCells, n, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		if rel.Sigma <= 0 || rel.Sigma != count.Sigma {
			t.Errorf("%v: cells sigma %v, count sigma %v", mech, rel.Sigma, count.Sigma)
		}
		var sharded CellRelease
		if err := ReleaseCells(&sharded, tree, 0, n, rng.New(21), 4); err != nil {
			t.Fatal(err)
		}
		for i, v := range rel.Counts {
			if sharded.Counts[i] != v {
				t.Fatalf("%v: cell %d depends on the worker count: %v != %v", mech, i, sharded.Counts[i], v)
			}
			if mech == MechGeometric && v != math.Trunc(v) {
				t.Fatalf("geometric cell %d non-integral: %v", i, v)
			}
		}
	}
}
