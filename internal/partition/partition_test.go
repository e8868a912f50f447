package partition

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dp"
	"repro/internal/rng"
)

// prefixView returns the prefix-sum view of valid weights the way
// hierarchy hands it out: a window of a longer array, pad items of
// other ranges on either side, so the view's base is not zero and its
// capacity runs past its end.
func prefixView(t testing.TB, weights []int64, pad int) []int64 {
	t.Helper()
	padded := make([]int64, 0, len(weights)+2*pad)
	for i := 0; i < pad; i++ {
		padded = append(padded, int64(1000+i))
	}
	padded = append(padded, weights...)
	for i := 0; i < pad; i++ {
		padded = append(padded, int64(7*i))
	}
	full, err := PrefixSums(padded)
	if err != nil {
		t.Fatal(err)
	}
	return full[pad : pad+len(weights)+1]
}

func TestBalanceUtilities(t *testing.T) {
	t.Parallel()
	// weights 3,1,2: total 6.
	// k=1: |3-3| = 0 -> 0
	// k=2: |4-2| = 2 -> -2
	want := []float64{0, -2}
	for _, pad := range []int{0, 3} {
		prefix := prefixView(t, []int64{3, 1, 2}, pad)
		for i := range want {
			if u := balanceUtility(prefix, prefix[0]+prefix[3], i+1); u != want[i] {
				t.Errorf("pad %d: u[%d] = %v, want %v", pad, i, u, want[i])
			}
		}
	}
	// Every cut of a random vector, against the definition.
	r := rng.New(5)
	weights := make([]int64, 200)
	for i := range weights {
		weights[i] = int64(r.Intn(1000))
	}
	prefix := prefixView(t, weights, 4)
	for i, want := range refBalanceUtilities(weights) {
		if u := balanceUtility(prefix, prefix[0]+prefix[len(weights)], i+1); u != want {
			t.Fatalf("u[%d] = %v, definition says %v", i, u, want)
		}
	}
}

// TestBalancedBisectorMatchesUtilityArgmax pins the crossing search to the
// utility-argmax formulation: earliest maximum utility. Small weights over
// short vectors make zero runs and ties on both sides of the crossing
// common.
func TestBalancedBisectorMatchesUtilityArgmax(t *testing.T) {
	t.Parallel()
	r := rng.New(33)
	for trial := 0; trial < 200; trial++ {
		weights := make([]int64, 2+r.Intn(60))
		for i := range weights {
			weights[i] = int64(r.Intn(20))
			if trial%2 == 0 {
				weights[i] = int64(r.Intn(3)) / 2 // mostly zeros
			}
		}
		got := bisectWeights(t, BalancedBisector{}, weights, trial%4)
		utilities := refBalanceUtilities(weights)
		want := 0
		for i, u := range utilities {
			if u > utilities[want] {
				want = i
			}
		}
		if got != want+1 {
			t.Fatalf("trial %d weights %v: Bisect %d, argmax %d", trial, weights, got, want+1)
		}
	}
}

// TestPrivacyConsumer checks which bisectors report budget consumption.
func TestPrivacyConsumer(t *testing.T) {
	t.Parallel()
	if !mustExpMech(t, 1).Private() {
		t.Error("ExpMechBisector must report Private")
	}
	for _, b := range []Bisector{BalancedBisector{}, MidpointBisector{}, mustRandom(t)} {
		if _, ok := b.(PrivacyConsumer); ok {
			t.Errorf("%s unexpectedly implements PrivacyConsumer", b.Name())
		}
	}
}

func TestValidateErrors(t *testing.T) {
	t.Parallel()
	bisectors := []Bisector{
		mustExpMech(t, 1),
		BalancedBisector{},
		mustRandom(t),
		MidpointBisector{},
	}
	for _, b := range bisectors {
		if _, err := b.Bisect(nil); !errors.Is(err, ErrTooSmall) {
			t.Errorf("%s: nil input error = %v", b.Name(), err)
		}
		if _, err := b.Bisect([]int64{0}); !errors.Is(err, ErrTooSmall) {
			t.Errorf("%s: empty view error = %v", b.Name(), err)
		}
		if _, err := b.Bisect(prefixView(t, []int64{5}, 2)); !errors.Is(err, ErrTooSmall) {
			t.Errorf("%s: single item error = %v", b.Name(), err)
		}
	}
	// Negative weights are refused where views are built, before any cut.
	if _, err := PrefixSums([]int64{1, -2}); !errors.Is(err, ErrNegativeWeight) {
		t.Errorf("PrefixSums: negative weight error = %v", err)
	}
}

func TestBalancedBisectorExact(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		weights []int64
		want    int
	}{
		{name: "even pair", weights: []int64{1, 1}, want: 1},
		{name: "front heavy", weights: []int64{10, 1, 1, 1}, want: 1},
		{name: "uniform four", weights: []int64{2, 2, 2, 2}, want: 2},
		{name: "back heavy", weights: []int64{1, 1, 1, 10}, want: 3},
		{name: "all zero", weights: []int64{0, 0, 0}, want: 1}, // ties break to first
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := bisectWeights(t, BalancedBisector{}, tc.weights, 1); got != tc.want {
				t.Errorf("cut = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestMidpointBisector(t *testing.T) {
	t.Parallel()
	if got := bisectWeights(t, MidpointBisector{}, []int64{1, 2, 3, 4, 5}, 1); got != 2 {
		t.Errorf("cut = %d, want 2", got)
	}
}

func TestRandomBisectorRange(t *testing.T) {
	t.Parallel()
	b := mustRandom(t)
	weights := []int64{1, 1, 1, 1, 1}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		cut := bisectWeights(t, b, weights, 0)
		if cut < 1 || cut >= len(weights) {
			t.Fatalf("cut %d outside [1,%d)", cut, len(weights))
		}
		seen[cut] = true
	}
	if len(seen) != len(weights)-1 {
		t.Errorf("random bisector only produced cuts %v", seen)
	}
}

func TestNewRandomBisectorNilSource(t *testing.T) {
	t.Parallel()
	if _, err := NewRandomBisector(nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestExpMechBisectorConcentratesOnBalance(t *testing.T) {
	t.Parallel()
	b := mustExpMech(t, 4) // generous budget concentrates hard
	// Perfect cut is k=2 (3+3 vs 3+3).
	weights := []int64{3, 3, 3, 3}
	counts := map[int]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		counts[bisectWeights(t, b, weights, 0)]++
	}
	if frac := float64(counts[2]) / n; frac < 0.75 {
		t.Errorf("balanced cut chosen %.2f of the time, want > 0.75 (counts %v)", frac, counts)
	}
}

func TestExpMechBisectorRandomizes(t *testing.T) {
	t.Parallel()
	// With a small budget every cut should appear.
	b := mustExpMech(t, 0.01)
	weights := []int64{5, 1, 1, 1, 5}
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		seen[bisectWeights(t, b, weights, 0)] = true
	}
	if len(seen) < 3 {
		t.Errorf("low-budget bisector too deterministic: %v", seen)
	}
}

func TestExpMechBisectorName(t *testing.T) {
	t.Parallel()
	if b := mustExpMech(t, 0.7); b.Name() != "expmech" {
		t.Errorf("Name = %q", b.Name())
	}
}

func TestNewExpMechBisectorValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewExpMechBisector(0, rng.New(1)); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewExpMechBisector(1, nil); err == nil {
		t.Error("nil source accepted")
	}
}

// TestQuickCutsInRange: every bisector returns cuts within [1, n-1] and
// never errors on valid input.
func TestQuickCutsInRange(t *testing.T) {
	t.Parallel()
	src := rng.New(42)
	expMech := mustExpMech(t, 0.5)
	random := mustRandom(t)
	f := func(seed uint64) bool {
		r := src.Split(seed)
		n := r.Intn(64) + 2
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = int64(r.Intn(100))
		}
		prefix := prefixView(t, weights, int(seed%3))
		for _, b := range []Bisector{expMech, BalancedBisector{}, random, MidpointBisector{}} {
			cut, err := b.Bisect(prefix)
			if err != nil {
				return false
			}
			if cut < 1 || cut >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// imbalance is |left − right| / total of the two parts a cut makes.
func imbalance(weights []int64, cut int) float64 {
	var left, right int64
	for i, w := range weights {
		if i < cut {
			left += w
		} else {
			right += w
		}
	}
	return math.Abs(float64(left-right)) / float64(left+right)
}

// TestExpMechBeatsRandomOnImbalance compares mean cut imbalance: with a
// skewed weight vector, the exponential mechanism should find more
// balanced cuts than uniform random cutting. This is the mechanism-level
// version of ablation A3.
func TestExpMechBeatsRandomOnImbalance(t *testing.T) {
	t.Parallel()
	expMech := mustExpMech(t, 1)
	random := mustRandom(t)
	src := rng.New(333)
	const rounds = 300
	var expTotal, randTotal float64
	for round := 0; round < rounds; round++ {
		r := src.Split(uint64(round))
		weights := make([]int64, 40)
		for i := range weights {
			weights[i] = int64(r.Intn(20))
		}
		weights[0] = 200 // strong skew
		cutE := bisectWeights(t, expMech, weights, 0)
		cutR := bisectWeights(t, random, weights, 0)
		expTotal += imbalance(weights, cutE)
		randTotal += imbalance(weights, cutR)
	}
	if expTotal >= randTotal {
		t.Errorf("expmech mean imbalance %.4f not better than random %.4f",
			expTotal/rounds, randTotal/rounds)
	}
}

func mustExpMech(t *testing.T, eps float64) *ExpMechBisector {
	t.Helper()
	b, err := NewExpMechBisector(eps, rng.New(uint64(math.Float64bits(eps))))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustRandom(t *testing.T) *RandomBisector {
	t.Helper()
	b, err := NewRandomBisector(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExpMechBisectorMatchesSelectLSE pins Bisect to the plain
// formulation: utilities from the definition, sampled through
// dp.Exponential.SelectLSE on an identically seeded stream. Successive
// calls shrink and grow the weight vector so stale scratch must not leak,
// and the two sources must end at the same position.
func TestExpMechBisectorMatchesSelectLSE(t *testing.T) {
	t.Parallel()
	const eps = 0.1
	src, refSrc := rng.New(41), rng.New(41)
	bis, err := NewExpMechBisector(eps, src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dp.NewExponential(eps, 1, refSrc)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	for trial := 0; trial < 300; trial++ {
		weights := make([]int64, 2+r.Intn(400))
		for i := range weights {
			weights[i] = int64(r.Intn(1 + 200_000/(i+1))) // descending heavy tail
		}
		want := refExpMechCut(t, ref, weights)
		if got := bisectWeights(t, bis, weights, trial%5); got != want {
			t.Fatalf("trial %d (n=%d): Bisect cut %d, reference cut %d", trial, len(weights), got, want)
		}
	}
	if a, b := src.Uint64(), refSrc.Uint64(); a != b {
		t.Fatalf("sources diverged after the trials: next draws %#x vs %#x", a, b)
	}
}

var cutSink int

// BenchmarkExpMechBisect times one private cut at the serving default
// ε 0.1 over prefix-sum views of a 700 k-node side in bisector order
// (descending Zipf-1 weights, ~28 M total) — the unit of work Phase 1
// repeats once per range per round. "side" is the whole side, the first
// round's cut: the crossing sits among weights in the thousands, so the
// live window is a handful of candidates and the cost is the binary
// searches. "tail" is a 64 k-node range of the flat tail, a window of the
// same array as deep rounds see it: weights of 5 keep a few thousand
// candidates alive, and the cost is their math.Exp calls.
func BenchmarkExpMechBisect(b *testing.B) {
	const n = 700_000
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = int64(2_000_000 / (i + 1))
	}
	prefix := prefixView(b, weights, 0)
	for _, view := range []struct {
		name   string
		prefix []int64
	}{{"side", prefix}, {"tail", prefix[n/2 : n/2+1<<16+1]}} {
		b.Run(view.name, func(b *testing.B) {
			bis, err := NewExpMechBisector(0.1, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cut, err := bis.Bisect(view.prefix)
				if err != nil {
					b.Fatal(err)
				}
				cutSink = cut
			}
		})
	}
}

// The full-vector reference. Every cut the package samples is held to the
// plain formulation below — the balance utility of every candidate from
// the definition, sampled through dp.Exponential.SelectLSE, which calls
// math.Exp on all of them — and the deterministic bisector to a linear
// scan. The references read raw weights and share no code with the
// bisectors.

// refBalanceUtilities returns utility(k) = −|S_k − (S_n − S_k)| for every
// cut k in [1, n−1] at index k−1.
func refBalanceUtilities(weights []int64) []float64 {
	var total, prefix int64
	for _, w := range weights {
		total += w
	}
	utilities := make([]float64, len(weights)-1)
	for k, w := range weights[:len(weights)-1] {
		prefix += w
		imbalance := prefix - (total - prefix)
		if imbalance < 0 {
			imbalance = -imbalance
		}
		utilities[k] = -float64(imbalance)
	}
	return utilities
}

// refExpMechCut samples one cut of weights from mech over the whole
// utility vector.
func refExpMechCut(t testing.TB, mech *dp.Exponential, weights []int64) int {
	t.Helper()
	idx, _, err := mech.SelectLSE(refBalanceUtilities(weights))
	if err != nil {
		t.Fatal(err)
	}
	return idx + 1
}

// refBalancedCut scans every cut and keeps the earliest most balanced one.
func refBalancedCut(weights []int64) int {
	var total, prefix int64
	for _, w := range weights {
		total += w
	}
	best, bestImbalance := 1, int64(-1)
	for k := 1; k < len(weights); k++ {
		prefix += weights[k-1]
		imbalance := 2*prefix - total
		if imbalance < 0 {
			imbalance = -imbalance
		}
		if bestImbalance < 0 || imbalance < bestImbalance {
			best, bestImbalance = k, imbalance
		}
	}
	return best
}

// bisectWeights runs one cut of b over the prefix-sum view of raw
// weights, embedded pad items deep in a longer array.
func bisectWeights(t testing.TB, b Bisector, weights []int64, pad int) int {
	t.Helper()
	cut, err := b.Bisect(prefixView(t, weights, pad))
	if err != nil {
		t.Fatal(err)
	}
	return cut
}

// fuzzMaxItems bounds the weight vectors the fuzz target decodes.
const fuzzMaxItems = 4096

// fuzzWeights decodes fuzz bytes into a weight vector of 2 to
// fuzzMaxItems items and the padding the view is embedded in. The first
// byte selects the shape, the second places the giant, and every later
// pair is (value, run length): a zero value makes a zero run, and the
// magnitude shapes spread the balance utilities from a few units to
// millions, so at every ε some vectors keep all candidates inside the
// sampler's live window and others leave most of them exact zeros. The
// giant shape makes one weight larger than all others combined, which
// pins the crossing to it — at either end of the vector one side of the
// window is empty.
func fuzzWeights(data []byte) (weights []int64, pad int) {
	if len(data) < 4 {
		return nil, 0
	}
	shape, place := data[0], int(data[1])
	for i := 2; i+1 < len(data) && len(weights) < fuzzMaxItems; i += 2 {
		w := int64(data[i])
		switch shape & 3 {
		case 1:
			w *= w * 17
		case 2:
			w <<= 12
		case 3:
			w = 0 // all zeros: every cut ties
		}
		for run := int(data[i+1])&0x3f + 1; run > 0 && len(weights) < fuzzMaxItems; run-- {
			weights = append(weights, w)
		}
	}
	if len(weights) < 2 {
		return nil, 0
	}
	if shape&4 != 0 {
		var rest int64
		for _, w := range weights {
			rest += w
		}
		at := place % len(weights)
		switch place >> 6 {
		case 0:
			at = 0
		case 1:
			at = len(weights) - 1
		}
		weights[at] = rest + 1 + int64(shape>>3)
	}
	return weights, place & 7
}

// FuzzBisectPrefixMatchesReference holds the bisectors to the full-vector
// reference on arbitrary weight vectors: at each ε the pipeline runs, the
// private bisector must choose the reference's cut and leave its source at
// the reference's position (one uniform per cut, whatever the window), and
// the balanced bisector must choose the linear scan's cut, ties included.
func FuzzBisectPrefixMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 1, 0, 2, 0})                               // the 3,1,2 of TestBalanceUtilities
	f.Add([]byte{2, 0, 200, 5, 0, 63, 90, 63, 3, 63, 1, 63, 0, 63})     // wide spread, zero runs
	f.Add([]byte{6, 0, 9, 63, 0, 63, 7, 63, 7, 63, 2, 63})              // giant on the first item
	f.Add([]byte{6, 64, 9, 63, 0, 63, 7, 63, 7, 63, 2, 63})             // giant on the last item
	f.Add([]byte{5, 200, 9, 63, 0, 63, 7, 63, 7, 63, 2, 63, 255, 63})   // giant in the middle
	f.Add([]byte{3, 7, 1, 63, 1, 63, 1, 63})                            // all zeros
	f.Add([]byte{1, 3, 255, 63, 254, 63, 253, 63, 1, 63, 1, 63, 0, 63}) // descending heavy tail
	f.Fuzz(func(t *testing.T, data []byte) {
		weights, pad := fuzzWeights(data)
		if weights == nil {
			return
		}
		if got, want := bisectWeights(t, BalancedBisector{}, weights, pad), refBalancedCut(weights); got != want {
			t.Fatalf("balanced: cut %d, linear scan %d (n=%d)", got, want, len(weights))
		}
		for _, eps := range []float64{0.01, 0.1, 2} {
			src, refSrc := rng.New(7), rng.New(7)
			bis, err := NewExpMechBisector(eps, src)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := dp.NewExponential(eps, 1, refSrc)
			if err != nil {
				t.Fatal(err)
			}
			// Two cuts per pair, so scratch left by the first cannot leak
			// into the second.
			for i := 0; i < 2; i++ {
				if got, want := bisectWeights(t, bis, weights, pad), refExpMechCut(t, ref, weights); got != want {
					t.Fatalf("eps=%v cut %d: Bisect %d, reference %d (n=%d)", eps, i, got, want, len(weights))
				}
			}
			if a, b := src.Uint64(), refSrc.Uint64(); a != b {
				t.Fatalf("eps=%v: sources diverged after the cuts: next draws %#x vs %#x", eps, a, b)
			}
		}
	})
}
