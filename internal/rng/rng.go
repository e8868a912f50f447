// Package rng provides deterministic, splittable pseudo-randomness for the
// whole repository.
//
// Differential-privacy experiments must be exactly reproducible under a
// fixed seed, including when work is distributed across goroutines. The
// math/rand global source cannot offer that (it is shared mutable state),
// so this package implements its own generator: xoshiro256++ seeded through
// SplitMix64, with a Split operation that derives statistically independent
// child streams from a parent stream and a label. All samplers used by the
// privacy mechanisms (normal, Laplace, two-sided geometric; the exponential
// mechanism inverts its CDF on one uniform) and by the synthetic data
// generator (Zipf) live here so that every random decision
// in the system flows through one auditable source.
//
// Normal variates come in two forms: the scalar Normal/NormalSigma
// (Marsaglia polar, kept draw-for-draw stable for existing seeded
// streams) and the batched NormalsSigma (normal.go), a 512-layer
// ziggurat that fills a whole slice per call — the Phase-2 release path
// uses it to noise an entire level histogram in one call instead of one
// method call per cell. Both realize the same N(0, σ²) law; the tests
// cross-validate their moments and KS statistics.
//
// A Source is NOT safe for concurrent use; share work by calling Split and
// giving each goroutine its own child stream.
package rng

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random source (xoshiro256++).
// The zero value is not usable; construct with New or Split.
type Source struct {
	s [4]uint64

	// spare caches the second normal variate produced by the Marsaglia
	// polar method so consecutive Normal calls cost one round on average.
	spare    float64
	hasSpare bool
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for deriving child streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source deterministically derived from seed.
// Distinct seeds yield statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// xoshiro256++ must not start from the all-zero state; SplitMix64
	// cannot produce four zero outputs in a row, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// NewRandomSeed returns a seed drawn from the operating system's entropy
// source. Use it when reproducibility is not required (e.g. production
// releases of privatized data, where a predictable seed would void the
// privacy guarantee).
func NewRandomSeed() (uint64, error) {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return 0, fmt.Errorf("rng: reading entropy: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// fillUint64 writes len(dst) consecutive stream outputs into dst. It is
// the bulk counterpart of Uint64 for the blocked samplers: the xoshiro
// state lives in registers for the whole loop instead of being loaded and
// stored through r.s once per output, which roughly halves the cost of a
// long uniform run. The stream advances exactly as len(dst) Uint64 calls
// would.
func (r *Source) fillUint64(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = bits.RotateLeft64(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Split derives a new Source from the current stream state and a caller
// chosen label. Child streams with distinct labels are independent of each
// other and of the parent's subsequent output, which makes fan-out across
// goroutines reproducible: split once per worker before starting them.
func (r *Source) Split(label uint64) *Source {
	child := new(Source)
	r.SplitTo(child, label)
	return child
}

// SplitTo is Split writing the derived child stream into dst instead of
// allocating one — the serving layer's per-query derivation chain reuses
// one scratch Source across queries, so a steady-state query performs no
// heap allocation. dst and r may be the same Source: the parent output
// that seeds the child is drawn before dst is overwritten, so
// src.SplitTo(src, label) collapses a chain link in place. The derived
// state is identical to Split's for the same (parent state, label).
func (r *Source) SplitTo(dst *Source, label uint64) {
	// Mix the parent state and the label through SplitMix64 so that
	// consecutive labels do not produce correlated children.
	sm := r.Uint64() ^ (label * 0x9e3779b97f4a7c15)
	for i := range dst.s {
		dst.s[i] = splitmix64(&sm)
	}
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = 1
	}
	dst.spare, dst.hasSpare = 0, false
}

// Fork captures an indexed stream-derivation point: one parent draw
// (the parent advances by exactly one Uint64) from which StreamTo
// derives the child stream of any index as a pure function of
// (fork point, index). Unlike a chain of Split calls, deriving child i
// does not disturb the derivation of child j, so parallel workers can
// claim indexed work items in any order — or any worker count — and
// still draw bit-identical noise per item. The index-i child is
// identical to the child Split(i) would have produced at the fork
// point, keeping forked streams in the same derivation family as the
// serving layer's session chains. A Fork value is immutable and safe
// for concurrent use.
type Fork struct{ base uint64 }

// Fork captures the current stream position as an indexed derivation
// point, advancing the parent by one Uint64.
func (r *Source) Fork() Fork { return Fork{base: r.Uint64()} }

// StreamTo writes the fork's index-th child stream into dst without
// allocating — the per-chunk scratch path of the parallel Phase-2
// release. The derived state is identical to Split's at the fork point
// for the same index.
func (f Fork) StreamTo(dst *Source, index uint64) {
	sm := f.base ^ (index * 0x9e3779b97f4a7c15)
	for i := range dst.s {
		dst.s[i] = splitmix64(&sm)
	}
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = 1
	}
	dst.spare, dst.hasSpare = 0, false
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniform float64 in the open interval (0, 1).
// Samplers that take logarithms use it to avoid log(0).
func (r *Source) OpenFloat64() float64 {
	for {
		if u := openUnit(r.Uint64()); u > 0 && u < 1 {
			return u
		}
	}
}

// openUnit maps a raw draw to OpenFloat64's grid (k + 0.5)/2^53. Its
// least value, openUnit(0) = 2^-54, bounds the ziggurat tail below 14,
// which core's maxFastRoundSigma depends on (TestNormalsSigmaBelow14).
func openUnit(x uint64) float64 {
	return (float64(x>>11) + 0.5) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0; callers
// validate domain sizes before sampling.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Normal returns a standard normal variate (mean 0, variance 1) using the
// Marsaglia polar method.
func (r *Source) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// NormalSigma returns a normal variate with mean 0 and the given standard
// deviation.
func (r *Source) NormalSigma(sigma float64) float64 {
	return sigma * r.Normal()
}

// Laplace returns a Laplace(0, b) variate via inverse-CDF sampling.
func (r *Source) Laplace(b float64) float64 {
	u := r.OpenFloat64() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}

// TwoSidedGeometric returns a two-sided geometric variate with decay alpha
// in (0, 1): P(k) ∝ alpha^|k| for integer k. With alpha = exp(-ε/Δ) this is
// the geometric mechanism's noise distribution. It panics if alpha is
// outside (0, 1); core.Noise validates its budget before sampling.
func (r *Source) TwoSidedGeometric(alpha float64) int64 {
	if !(alpha > 0 && alpha < 1) {
		panic("rng: TwoSidedGeometric alpha must be in (0,1)")
	}
	// Difference of two one-sided geometric variates G1 - G2, each with
	// success probability 1-alpha, is two-sided geometric with decay alpha.
	g1 := r.oneSidedGeometric(alpha)
	g2 := r.oneSidedGeometric(alpha)
	return g1 - g2
}

// oneSidedGeometric returns k >= 0 with P(k) = (1-alpha) * alpha^k via
// inverse-CDF sampling.
func (r *Source) oneSidedGeometric(alpha float64) int64 {
	u := r.OpenFloat64()
	k := math.Floor(math.Log(u) / math.Log(alpha))
	if k < 0 {
		return 0
	}
	if k > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(k)
}

// ErrZipfParams reports invalid Zipf parameters.
var ErrZipfParams = errors.New("rng: zipf requires s > 1, v >= 1, imax >= 0")

// Zipf samples integers in [0, imax] with P(k) proportional to
// (v + k)^(-s), using Hörmann's rejection-inversion method. It mirrors the
// semantics of math/rand.Zipf but runs on this package's deterministic
// source. Construct once per distribution; Next is cheap.
type Zipf struct {
	src              *Source
	imax             float64
	v, s             float64
	q, oneminusQ     float64
	oneminusQinv     float64
	hxm, hx0minusHxm float64
}

// NewZipf returns a Zipf sampler or an error if parameters are invalid.
func NewZipf(src *Source, s, v float64, imax uint64) (*Zipf, error) {
	if src == nil {
		return nil, errors.New("rng: NewZipf requires a non-nil source")
	}
	if s <= 1 || v < 1 {
		return nil, fmt.Errorf("%w (s=%v, v=%v)", ErrZipfParams, s, v)
	}
	z := &Zipf{src: src, imax: float64(imax), v: v, s: s}
	z.q = s
	z.oneminusQ = 1 - z.q
	z.oneminusQinv = 1 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(v)*(-z.q)) - z.hxm
	return z, nil
}

// h is the antiderivative used by rejection-inversion:
// h(x) = exp(oneminusQ * log(v + x)) * oneminusQinv.
func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

// hinv is the inverse of h.
func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Next returns the next Zipf-distributed value in [0, imax].
func (z *Zipf) Next() uint64 {
	for {
		r := z.src.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k > z.imax {
			k = z.imax
		}
		if k < 0 {
			k = 0
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}
