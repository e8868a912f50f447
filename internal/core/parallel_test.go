package core

import (
	"testing"

	"repro/internal/dp"
	"repro/internal/rng"
)

// noisySizes sweeps histogram lengths around every boundary the chunk
// grid cares about: the scalar/blocked ziggurat switch (rng.ZigBlock),
// one chunk (noiseChunk), the absorb rule's threshold (a final fragment
// shorter than ZigBlock joins the last chunk), and multi-chunk sizes.
var noisySizes = []int{
	1, 2, 127, 128, 129, 511, 512, 513,
	noiseChunk - 1, noiseChunk, noiseChunk + 1,
	noiseChunk + rng.ZigBlock - 1, noiseChunk + rng.ZigBlock, noiseChunk + rng.ZigBlock + 1,
	2*noiseChunk - 1, 2 * noiseChunk, 2*noiseChunk + rng.ZigBlock,
	3*noiseChunk + 77,
}

// chunkMechs is each mechanism at a sampler parameter that draws
// non-trivial noise: σ, the Laplace b, the geometric α.
var chunkMechs = []struct {
	mech  NoiseMechanism
	param float64
}{
	{MechGaussian, 3.5},
	{MechLaplace, 3.5},
	{MechGeometric, 0.8},
}

// TestNoisyCellsWorkerBitIdentity is the tentpole contract: the sharded
// noise pass must produce bit-identical output for every worker count,
// under every mechanism, across histogram lengths straddling every
// chunk/block boundary.
func TestNoisyCellsWorkerBitIdentity(t *testing.T) {
	t.Parallel()
	for _, m := range chunkMechs {
		for _, n := range noisySizes {
			counts := make([]int64, n)
			for i := range counts {
				counts[i] = int64(i % 9001)
			}
			want := noisyCells(nil, counts, nil, m.mech, m.param, rng.New(42), 1)
			for _, workers := range []int{2, 4, 7} {
				got := noisyCells(nil, counts, nil, m.mech, m.param, rng.New(42), workers)
				if len(got) != len(want) {
					t.Fatalf("%v n=%d workers=%d: len %d != %d", m.mech, n, workers, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v n=%d workers=%d: cell %d differs: %v != %v", m.mech, n, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNoisyCellsNarrowPathBitIdentity pins the int32 add path to the
// int64 one: float64(int32(v)) == float64(v) exactly for any value that
// fits, so the narrow read must not change a single bit.
func TestNoisyCellsNarrowPathBitIdentity(t *testing.T) {
	t.Parallel()
	for _, n := range noisySizes {
		counts := make([]int64, n)
		counts32 := make([]int32, n)
		for i := range counts {
			v := int64((i * 2654435761) % (1 << 31))
			counts[i] = v
			counts32[i] = int32(v)
		}
		for _, workers := range []int{1, 4} {
			wide := noisyCells(nil, counts, nil, MechGaussian, 2.25, rng.New(7), workers)
			narrow := noisyCells(nil, counts, counts32, MechGaussian, 2.25, rng.New(7), workers)
			for i := range wide {
				if wide[i] != narrow[i] {
					t.Fatalf("n=%d workers=%d: cell %d: wide %v != narrow %v", n, workers, i, wide[i], narrow[i])
				}
			}
		}
	}
}

// TestNoiseChunkCount pins the grid's absorb rule as a pure function of
// n — the property that makes chunk boundaries (and therefore streams)
// independent of the worker count.
func TestNoiseChunkCount(t *testing.T) {
	t.Parallel()
	cases := []struct{ n, want int }{
		{1, 1},
		{noiseChunk - 1, 1},
		{noiseChunk, 1},
		{noiseChunk + rng.ZigBlock - 1, 1}, // absorbed
		{noiseChunk + rng.ZigBlock, 2},     // big enough to stand alone
		{2 * noiseChunk, 2},
		{2*noiseChunk + 1, 2}, // absorbed
		{2*noiseChunk + rng.ZigBlock, 3},
	}
	for _, c := range cases {
		if got := noiseChunkCount(c.n); got != c.want {
			t.Errorf("noiseChunkCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Every chunk except possibly the last must be exactly noiseChunk;
	// the last lives in [1, noiseChunk+ZigBlock).
	for _, n := range noisySizes {
		chunks := noiseChunkCount(n)
		last := n - (chunks-1)*noiseChunk
		if chunks > 1 && (last < rng.ZigBlock || last >= noiseChunk+rng.ZigBlock) {
			t.Errorf("n=%d: last chunk length %d outside [ZigBlock, noiseChunk+ZigBlock)", n, last)
		}
		if chunks == 1 && last != n {
			t.Errorf("n=%d: single chunk of %d", n, last)
		}
	}
}

// TestReleaseCellsWorkersBitIdentity runs the public tree-level release
// across worker counts and checks the full record — counts, sigma,
// metadata — is identical.
func TestReleaseCellsWorkersBitIdentity(t *testing.T) {
	t.Parallel()
	tree := deepTree(t, 6)
	p := dp.Params{Epsilon: 0.5, Delta: 1e-5}
	var want CellRelease
	if err := ReleaseCells(&want, tree, 0, classical(p), rng.New(5), 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 7} {
		var got CellRelease
		if err := ReleaseCells(&got, tree, 0, classical(p), rng.New(5), workers); err != nil {
			t.Fatal(err)
		}
		if got.Sigma != want.Sigma || got.Level != want.Level || len(got.Counts) != len(want.Counts) {
			t.Fatalf("workers=%d: record header differs", workers)
		}
		for i := range got.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("workers=%d: cell %d: %v != %v", workers, i, got.Counts[i], want.Counts[i])
			}
		}
	}
}

// TestNoisyCellsZeroSigma covers the σ=0 copy path (empty
// dataset edge case) under the worker plumbing: no draws, exact counts,
// any worker count, every mechanism.
func TestNoisyCellsZeroSigma(t *testing.T) {
	t.Parallel()
	counts := []int64{3, 1, 4, 1, 5}
	for _, m := range chunkMechs {
		for _, workers := range []int{1, 4} {
			src := rng.New(1)
			before := *src
			got := noisyCells(nil, counts, nil, m.mech, 0, src, workers)
			if *src != before {
				t.Fatalf("%v workers=%d: σ=0 consumed parent stream state", m.mech, workers)
			}
			for i, c := range counts {
				if got[i] != float64(c) {
					t.Fatalf("%v workers=%d: cell %d: %v != %d", m.mech, workers, i, got[i], c)
				}
			}
		}
	}
}
