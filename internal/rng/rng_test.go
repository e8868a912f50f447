package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	t.Parallel()
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	t.Parallel()
	a := New(1)
	b := New(2)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sources with different seeds agreed on %d/%d draws", same, n)
	}
}

func TestSplitIndependence(t *testing.T) {
	t.Parallel()
	parent := New(7)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams agreed on %d/%d draws", same, n)
	}
}

func TestSplitDeterministic(t *testing.T) {
	t.Parallel()
	mk := func() *Source { return New(99).Split(5) }
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic for equal (seed, label)")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestOpenFloat64Range(t *testing.T) {
	t.Parallel()
	r := New(4)
	for i := 0; i < 100000; i++ {
		f := r.OpenFloat64()
		if f <= 0 || f >= 1 {
			t.Fatalf("OpenFloat64 out of (0,1): %v", f)
		}
	}
}

func TestUint64nUnbiasedSmallDomain(t *testing.T) {
	t.Parallel()
	r := New(5)
	const n = 10
	const draws = 200000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want about %.0f", v, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	t.Parallel()
	r := New(11)
	const n = 400000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want about 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want about 1", variance)
	}
}

func TestNormalSigmaScales(t *testing.T) {
	t.Parallel()
	r := New(12)
	const n = 200000
	const sigma = 7.5
	var sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormalSigma(sigma)
		sumSq += x * x
	}
	sd := math.Sqrt(sumSq / n)
	if math.Abs(sd-sigma)/sigma > 0.02 {
		t.Errorf("sample sd = %v, want about %v", sd, sigma)
	}
}

func TestLaplaceMoments(t *testing.T) {
	t.Parallel()
	r := New(13)
	const n = 400000
	const b = 3.0
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		x := r.Laplace(b)
		sum += x
		sumAbs += math.Abs(x)
	}
	mean := sum / n
	meanAbs := sumAbs / n
	if math.Abs(mean) > 0.05 {
		t.Errorf("laplace mean = %v, want about 0", mean)
	}
	// E|X| = b for Laplace(0, b).
	if math.Abs(meanAbs-b)/b > 0.02 {
		t.Errorf("laplace E|X| = %v, want about %v", meanAbs, b)
	}
}

func TestTwoSidedGeometricSymmetryAndDecay(t *testing.T) {
	t.Parallel()
	r := New(16)
	const n = 400000
	const alpha = 0.5
	var sum float64
	counts := map[int64]int{}
	for i := 0; i < n; i++ {
		k := r.TwoSidedGeometric(alpha)
		sum += float64(k)
		counts[k]++
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Errorf("two-sided geometric mean = %v, want about 0", mean)
	}
	// P(1)/P(0) should be about alpha.
	ratio := float64(counts[1]) / float64(counts[0])
	if math.Abs(ratio-alpha) > 0.05 {
		t.Errorf("P(1)/P(0) = %v, want about %v", ratio, alpha)
	}
	// Symmetry: P(1) close to P(-1).
	symm := float64(counts[1]) / float64(counts[-1])
	if math.Abs(symm-1) > 0.1 {
		t.Errorf("P(1)/P(-1) = %v, want about 1", symm)
	}
}

func TestTwoSidedGeometricPanicsOnBadAlpha(t *testing.T) {
	t.Parallel()
	for _, alpha := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TwoSidedGeometric(%v) did not panic", alpha)
				}
			}()
			New(1).TwoSidedGeometric(alpha)
		}()
	}
}

func TestNewZipfValidation(t *testing.T) {
	t.Parallel()
	src := New(1)
	cases := []struct {
		name    string
		s, v    float64
		wantErr bool
	}{
		{name: "valid", s: 2, v: 1, wantErr: false},
		{name: "s too small", s: 1, v: 1, wantErr: true},
		{name: "negative s", s: -2, v: 1, wantErr: true},
		{name: "v too small", s: 2, v: 0.5, wantErr: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := NewZipf(src, tc.s, tc.v, 100)
			if (err != nil) != tc.wantErr {
				t.Fatalf("NewZipf(s=%v,v=%v) error = %v, wantErr %v", tc.s, tc.v, err, tc.wantErr)
			}
		})
	}
	if _, err := NewZipf(nil, 2, 1, 10); err == nil {
		t.Error("NewZipf(nil source) did not error")
	}
}

func TestZipfInRangeAndMonotoneMass(t *testing.T) {
	t.Parallel()
	src := New(19)
	const imax = 50
	z, err := NewZipf(src, 2.0, 1.0, imax)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300000
	counts := make([]int, imax+1)
	for i := 0; i < n; i++ {
		k := z.Next()
		if k > imax {
			t.Fatalf("Zipf produced %d > imax %d", k, imax)
		}
		counts[k]++
	}
	// Mass should be (weakly, allowing noise) decreasing over the first few
	// ranks and rank 0 should dominate.
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Errorf("Zipf head not decreasing: %v", counts[:5])
	}
	// For s=2, v=1: P(0)/P(1) = 4.
	ratio := float64(counts[0]) / float64(counts[1])
	if math.Abs(ratio-4) > 0.4 {
		t.Errorf("P(0)/P(1) = %v, want about 4", ratio)
	}
}

func TestZipfDistributionMatchesExactLaw(t *testing.T) {
	t.Parallel()
	src := New(20)
	const imax = 9
	const s, v = 2.5, 1.0
	z, err := NewZipf(src, s, v, imax)
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	expected := make([]float64, imax+1)
	for k := 0; k <= imax; k++ {
		expected[k] = math.Pow(v+float64(k), -s)
		norm += expected[k]
	}
	const n = 500000
	counts := make([]int, imax+1)
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for k := 0; k <= imax; k++ {
		want := expected[k] / norm * n
		if want < 50 {
			continue // too little mass for a stable comparison
		}
		if math.Abs(float64(counts[k])-want) > 6*math.Sqrt(want) {
			t.Errorf("k=%d: count %d, want about %.0f", k, counts[k], want)
		}
	}
}

func TestQuickUint64nAlwaysInRange(t *testing.T) {
	t.Parallel()
	r := New(21)
	f := func(seed uint64, nRaw uint32) bool {
		n := uint64(nRaw%10000) + 1
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLaplaceSignSymmetric(t *testing.T) {
	t.Parallel()
	// Property: with a fresh deterministic source, the empirical sign bias
	// over a batch is small for any scale.
	f := func(seed uint64, scaleRaw uint32) bool {
		b := 0.1 + float64(scaleRaw%1000)/100
		r := New(seed)
		pos := 0
		const n = 2000
		for i := 0; i < n; i++ {
			if r.Laplace(b) > 0 {
				pos++
			}
		}
		return pos > n/2-200 && pos < n/2+200
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNewRandomSeed(t *testing.T) {
	t.Parallel()
	a, err := NewRandomSeed()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomSeed()
	if err != nil {
		t.Fatal(err)
	}
	// Not a strict guarantee, but a collision is astronomically unlikely
	// and would indicate the entropy source is broken.
	if a == b {
		t.Error("two NewRandomSeed calls returned the same value")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal()
	}
}

func BenchmarkLaplace(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Laplace(1)
	}
}

// TestSplitToMatchesSplit pins the zero-alloc SplitTo to Split: same
// derived state for the same (parent state, label), including in-place
// self-collapse (src.SplitTo(src, label)), and the polar spare is
// cleared so a recycled scratch Source cannot leak a previous stream's
// cached variate.
func TestSplitToMatchesSplit(t *testing.T) {
	a, b := New(7), New(7)
	want := a.Split(13)
	var got Source
	b.SplitTo(&got, 13)
	for i := 0; i < 16; i++ {
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("draw %d: Split %d != SplitTo %d", i, w, g)
		}
	}
	// Parents advanced identically.
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split and SplitTo advanced their parents differently")
	}

	// In-place chain collapse: x.SplitTo(x, l) == x = x.Split(l).
	c, d := New(11), New(11)
	wantChain := c.Split(1).Split(2).Split(3)
	e := d
	e.SplitTo(e, 1)
	e.SplitTo(e, 2)
	e.SplitTo(e, 3)
	for i := 0; i < 16; i++ {
		if w, g := wantChain.Uint64(), e.Uint64(); w != g {
			t.Fatalf("chained draw %d: Split %d != SplitTo %d", i, w, g)
		}
	}

	// A dirty spare must not survive into the derived stream.
	f := New(3)
	f.Normal() // leaves hasSpare set
	var dirty Source
	dirty.spare, dirty.hasSpare = 123, true
	f.SplitTo(&dirty, 5)
	g := New(3)
	g.Normal()
	if dirty.Normal() != g.Split(5).Normal() {
		t.Fatal("SplitTo leaked a stale polar spare into the child stream")
	}
}

// TestForkMatchesSplit pins the Fork derivation to Split: child index i
// of a fork taken at some parent state must equal Split(i) taken at the
// same state, so per-chunk fork streams stay in the one derivation
// family the repo's determinism story is built on.
func TestForkMatchesSplit(t *testing.T) {
	t.Parallel()
	for _, label := range []uint64{0, 1, 13, 1 << 40} {
		a, b := New(7), New(7)
		f := a.Fork()
		want := b.Split(label)
		var got Source
		f.StreamTo(&got, label)
		for i := 0; i < 16; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("label %d draw %d: Split %d != Fork.Stream %d", label, i, w, g)
			}
		}
	}
	// Fork and Split consume the parent identically (one Uint64).
	a, b := New(9), New(9)
	a.Fork()
	b.Split(0)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Fork and Split advanced their parents differently")
	}
}

// TestForkOrderIndependence is the property the parallel noise pass
// rests on: a Fork is an immutable value, so any interleaving of child
// derivations — including concurrent StreamTo into per-worker scratch
// sources — yields the same streams.
func TestForkOrderIndependence(t *testing.T) {
	t.Parallel()
	f := New(21).Fork()
	const children = 8
	want := make([]uint64, children)
	for i := range want {
		var child Source
		f.StreamTo(&child, uint64(i))
		want[i] = child.Uint64()
	}
	// Reverse order, shared scratch.
	var scratch Source
	for i := children - 1; i >= 0; i-- {
		f.StreamTo(&scratch, uint64(i))
		if got := scratch.Uint64(); got != want[i] {
			t.Fatalf("child %d differs when derived in reverse order", i)
		}
	}
	// StreamTo must clear a dirty polar spare like SplitTo does.
	dirty := New(3)
	dirty.Normal()
	f.StreamTo(dirty, 4)
	var fresh Source
	f.StreamTo(&fresh, 4)
	if dirty.Normal() != fresh.Normal() {
		t.Fatal("Fork.StreamTo leaked a stale polar spare into the child stream")
	}
}
