package rng

import (
	"math"
	"sort"
	"testing"
)

// stdNormalCDF is Φ, the exact standard normal CDF.
func stdNormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// ksStatistic returns the one-sample Kolmogorov–Smirnov statistic of
// samples against the normal CDF with the given sigma. samples is sorted
// in place.
func ksStatistic(samples []float64, sigma float64) float64 {
	sort.Float64s(samples)
	n := float64(len(samples))
	var d float64
	for i, x := range samples {
		f := stdNormalCDF(x / sigma)
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
	}
	return d
}

func TestNormalsSigmaDeterministic(t *testing.T) {
	a := make([]float64, 1000)
	b := make([]float64, 1000)
	New(42).NormalsSigma(a, 1.5)
	New(42).NormalsSigma(b, 1.5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d: %v != %v under the same seed", i, a[i], b[i])
		}
	}
}

func TestNormalsSigmaZeroSigmaFillsZeros(t *testing.T) {
	dst := []float64{1, 2, 3, 4}
	New(1).NormalsSigma(dst, 0)
	for i, v := range dst {
		if v != 0 {
			t.Errorf("dst[%d] = %v, want 0 for sigma=0", i, v)
		}
	}
	dst = []float64{5, 6}
	New(1).NormalsSigma(dst, -1)
	for i, v := range dst {
		if v != 0 {
			t.Errorf("dst[%d] = %v, want 0 for negative sigma", i, v)
		}
	}
}

// TestNormalsSigmaMoments pins the first four moments of the ziggurat
// sampler to the normal law.
func TestNormalsSigmaMoments(t *testing.T) {
	const (
		n     = 400_000
		sigma = 2.5
	)
	samples := make([]float64, n)
	New(7).NormalsSigma(samples, sigma)

	var sum float64
	for _, x := range samples {
		sum += x
	}
	mean := sum / n
	var m2, m3, m4 float64
	for _, x := range samples {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m3 /= n
	m4 /= n
	sd := math.Sqrt(m2)
	skew := m3 / (sd * sd * sd)
	exKurt := m4/(m2*m2) - 3

	// Standard errors: mean ~ σ/√n, variance ~ σ²√(2/n), skew ~ √(6/n),
	// kurtosis ~ √(24/n); allow 5 standard errors each.
	if tol := 5 * sigma / math.Sqrt(n); math.Abs(mean) > tol {
		t.Errorf("mean = %v, want |mean| < %v", mean, tol)
	}
	if tol := 5 * sigma * sigma * math.Sqrt(2.0/n); math.Abs(m2-sigma*sigma) > tol {
		t.Errorf("variance = %v, want %v ± %v", m2, sigma*sigma, tol)
	}
	if tol := 5 * math.Sqrt(6.0/n); math.Abs(skew) > tol {
		t.Errorf("skewness = %v, want |skew| < %v", skew, tol)
	}
	if tol := 5 * math.Sqrt(24.0/n); math.Abs(exKurt) > tol {
		t.Errorf("excess kurtosis = %v, want |kurt| < %v", exKurt, tol)
	}
}

// TestNormalsSigmaKSAgainstExactCDF checks the full distribution shape:
// the KS distance to the exact normal CDF must be below the α=0.001
// critical value, which a biased layer table or a wrong tail would blow
// past immediately.
func TestNormalsSigmaKSAgainstExactCDF(t *testing.T) {
	const n = 200_000
	samples := make([]float64, n)
	New(11).NormalsSigma(samples, 3)
	d := ksStatistic(samples, 3)
	crit := 1.95 / math.Sqrt(n) // α ≈ 0.001
	if d > crit {
		t.Errorf("KS statistic %v exceeds critical value %v", d, crit)
	}
}

// TestNormalsSigmaCrossValidatesPolar pins the ziggurat and the polar
// Normal to the same law: both KS distances against the exact CDF pass,
// and their sample moments agree within joint statistical tolerance, so
// replacing per-cell Normal draws with one batched fill preserves the
// release's output distribution.
func TestNormalsSigmaCrossValidatesPolar(t *testing.T) {
	const n = 200_000
	zig := make([]float64, n)
	New(23).NormalsSigma(zig, 1)
	polar := make([]float64, n)
	src := New(29)
	for i := range polar {
		polar[i] = src.Normal()
	}

	crit := 1.95 / math.Sqrt(n)
	if d := ksStatistic(zig, 1); d > crit {
		t.Errorf("ziggurat KS statistic %v exceeds %v", d, crit)
	}
	if d := ksStatistic(polar, 1); d > crit {
		t.Errorf("polar KS statistic %v exceeds %v", d, crit)
	}

	moments := func(xs []float64) (mean, variance float64) {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean = sum / n
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		variance /= n
		return
	}
	mz, vz := moments(zig)
	mp, vp := moments(polar)
	if tol := 10 / math.Sqrt(n); math.Abs(mz-mp) > tol {
		t.Errorf("means diverge: ziggurat %v vs polar %v", mz, mp)
	}
	if tol := 10 * math.Sqrt(2.0/n); math.Abs(vz-vp) > tol {
		t.Errorf("variances diverge: ziggurat %v vs polar %v", vz, vp)
	}
}

// TestNormalsSigmaTailCoverage verifies the slow path actually produces
// tail mass beyond the last ziggurat layer at the right rate.
func TestNormalsSigmaTailCoverage(t *testing.T) {
	const n = 1_000_000
	samples := make([]float64, n)
	New(31).NormalsSigma(samples, 1)
	var tail int
	for _, x := range samples {
		if math.Abs(x) > zigTailR {
			tail++
		}
	}
	p := 2 * (1 - stdNormalCDF(zigTailR))
	want := p * n
	if float64(tail) < want/2 || float64(tail) > want*2 {
		t.Errorf("tail count %d, want about %.0f (|x| > %v)", tail, want, zigTailR)
	}
}

// TestNormalsSigmaBelow14 pins the bound core's fast rounding relies
// on: no ziggurat variate reaches 14 in magnitude. The rectangles and
// wedges stay inside x_i ≤ r; the tail returns r + x with
// x = −ln(u)/r, largest at OpenFloat64's least value openUnit(0).
func TestNormalsSigmaBelow14(t *testing.T) {
	const bound = 14
	least := openUnit(0)
	if least != 0x1p-54 {
		t.Fatalf("OpenFloat64's least value %v, want 2^-54", least)
	}
	if tail := zigTailR - math.Log(least)/zigTailR; !(tail < bound) {
		t.Fatalf("tail sampler reaches %v", tail)
	}
	// Fast path: |j| < 2^54, accepted in layer 0 only below zigK[0].
	if top := float64(zigK[0]) * zigW[0]; !(top < bound) {
		t.Fatalf("layer 0 rectangle reaches %v", top)
	}
	for i := 1; i < zigLayers; i++ {
		if top := zigM * zigW[i]; !(top < bound) {
			t.Fatalf("layer %d reaches %v", i, top)
		}
	}
	samples := make([]float64, 1<<20)
	New(37).NormalsSigma(samples, 1)
	for i, x := range samples {
		if !(math.Abs(x) < bound) {
			t.Fatalf("sample %d = %v", i, x)
		}
	}
}

// TestNormalsSigmaScales checks the sigma multiplier is applied.
func TestNormalsSigmaScales(t *testing.T) {
	a := make([]float64, 4096)
	b := make([]float64, 4096)
	New(5).NormalsSigma(a, 1)
	New(5).NormalsSigma(b, 10)
	for i := range a {
		if b[i] != 10*a[i] {
			t.Fatalf("index %d: %v != 10 * %v", i, b[i], a[i])
		}
	}
}

func BenchmarkNormalsSigma(b *testing.B) {
	src := New(3)
	dst := make([]float64, 4096)
	b.SetBytes(int64(len(dst)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.NormalsSigma(dst, 1.5)
	}
}

// TestZigguratTableCloses pins the 512-layer geometry: the recurrence
// from x_{N-1} = zigTailR down to x_1 must close the ziggurat exactly —
// zigArea/x_1 + f(x_1) = 1, i.e. the top layer's strip is the whole
// remaining area. A wrong (zigTailR, zigArea) pair (the constants come
// from an offline bisection solve, not a published table) would leave a
// residual here long before the statistical tests could see the bias.
func TestZigguratTableCloses(t *testing.T) {
	x1 := zigW[1] * zigM
	if res := math.Abs(zigArea/x1 + math.Exp(-0.5*x1*x1) - 1); res > 1e-12 {
		t.Errorf("ziggurat closure residual = %v, want < 1e-12", res)
	}
	// The tables must be monotone: x_i increases with i, f decreases.
	for i := 2; i < zigLayers; i++ {
		if zigW[i] <= zigW[i-1] {
			t.Fatalf("zigW not increasing at layer %d", i)
		}
		if zigF[i] >= zigF[i-1] {
			t.Fatalf("zigF not decreasing at layer %d", i)
		}
	}
	if zigW[zigLayers-1]*zigM != zigTailR {
		t.Errorf("last layer edge = %v, want zigTailR %v", zigW[zigLayers-1]*zigM, zigTailR)
	}
}

// TestNormalsSigmaGolden pins the blocked fill's exact fixed-seed output
// so replay stability across platforms and future refactors is a tested
// contract, not an accident. The blocked path consumes the uniform
// stream block-at-a-time (these values intentionally differ from the
// pre-blocked scalar implementation), and fills below the block-path
// cutoff run the scalar loop — its prefix agrees with the blocked path
// until the block's first straggler re-draw lands.
func TestNormalsSigmaGolden(t *testing.T) {
	dst := make([]float64, 4096)
	New(42).NormalsSigma(dst, 1.5)
	golden := []struct {
		i    int
		bits uint64
	}{
		{0, 0xbfe5901ef1728a72},
		{1, 0x40002332c60159a1},
		{2, 0xbfb9c6a96fc127b1},
		{3, 0xc000c550634b23c0},
		{511, 0x3fe4c93235dd8577},
		{512, 0x3fc9826b1a6fefbc},
		{1023, 0xbff98f2075640ec6},
		{2048, 0xc0024380a5caded8},
		{4095, 0x3fcb7bfe2d87d7ba},
	}
	for _, g := range golden {
		if got := math.Float64bits(dst[g.i]); got != g.bits {
			t.Errorf("dst[%d] = %v (0x%016x), want 0x%016x", g.i, dst[g.i], got, g.bits)
		}
	}
	small := make([]float64, 8)
	New(42).NormalsSigma(small, 1.5)
	goldenSmall := []uint64{
		0xbfe5901ef1728a72, 0x40002332c60159a1, 0xbfb9c6a96fc127b1, 0xc000c550634b23c0,
		0xbfe4cc0dd7f5b4f9, 0xbff57e80e1e056b9, 0x3fe6398910636ae6, 0xc000ea706239202e,
	}
	for i, want := range goldenSmall {
		if got := math.Float64bits(small[i]); got != want {
			t.Errorf("small[%d] = %v (0x%016x), want 0x%016x", i, small[i], got, want)
		}
	}
}

// TestNormalsSigmaChunkedStreamEquivalent is the contract core.noisyCells
// builds on: a fill issued as chunks at ZigBlock multiples consumes the
// stream identically to one whole-slice call, so the release engine can
// interleave the counts add at chunk granularity without changing a
// single released byte.
func TestNormalsSigmaChunkedStreamEquivalent(t *testing.T) {
	const n = 10 * ZigBlock
	whole := make([]float64, n)
	srcW := New(99)
	srcW.NormalsSigma(whole, 2)

	chunked := make([]float64, n)
	srcC := New(99)
	for off := 0; off < n; off += 2 * ZigBlock {
		srcC.NormalsSigma(chunked[off:off+2*ZigBlock], 2)
	}
	for i := range whole {
		if math.Float64bits(whole[i]) != math.Float64bits(chunked[i]) {
			t.Fatalf("index %d: whole %v != chunked %v", i, whole[i], chunked[i])
		}
	}
	// The sources must land in the same stream state too.
	if srcW.Uint64() != srcC.Uint64() {
		t.Fatal("whole and chunked fills left the stream in different states")
	}
}
