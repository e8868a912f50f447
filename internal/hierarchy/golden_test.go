package hierarchy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/rng"
)

// goldenTreeDigest hashes everything a build decides: both side
// permutations, every level's range bounds, the finest cell matrix
// (which determines every coarser one) and the JSON bytes of the dataset
// summary.
func goldenTreeDigest(t *testing.T, tree *Tree) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, side := range []bipartite.Side{bipartite.Left, bipartite.Right} {
		perm, err := tree.SidePermutation(side)
		if err != nil {
			t.Fatal(err)
		}
		put(int64(len(perm)))
		for _, node := range perm {
			put(int64(node))
		}
		for level := tree.MaxLevel(); level >= 0; level-- {
			bounds, err := tree.SideBounds(level, side)
			if err != nil {
				t.Fatal(err)
			}
			put(int64(len(bounds)))
			for _, b := range bounds {
				put(int64(b))
			}
		}
	}
	cells, err := tree.LevelCellCountsView(0)
	if err != nil {
		t.Fatal(err)
	}
	put(int64(len(cells)))
	for _, c := range cells {
		put(c)
	}
	stats, err := json.Marshal(tree.DatasetStats())
	if err != nil {
		t.Fatal(err)
	}
	h.Write(stats)
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamedBuildGolden pins the trees the exponential-mechanism build
// produces on a heavy-tailed 60 k × 90 k × 400 k graph to digests taken
// before the cold-start kernels (summary, sampler, first-round sort) were
// rewritten: for every ε × bisector seed the builds over a graph cursor
// and over the generation-order edge list, at Workers 1 and 4, must all
// reproduce the one recorded digest.
// A moved digest means a cut, a permutation or a summary field changed —
// and with it every fingerprint, WAL name and released byte downstream.
func TestStreamedBuildGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 400k-edge graph")
	}
	t.Parallel()
	want := map[string]string{
		"eps=0.01 seed=1": "dab61c4d9adee8dce34c71e8d411832c7c8ab9ae90baa4863e1c4766bb024785",
		"eps=0.01 seed=2": "d8cd69fee77d7683b1a9b1d7d8ad1808787a0211f7e4a030fc4bbe5a677a7423",
		"eps=0.01 seed=3": "5d8139552ace156f101f28f688f3d676bb285af8f32bfc9df1f19db4c8aabf17",
		"eps=0.1 seed=1":  "924c055ec20aa0caa763031c4c1d86a33edcd3a8dadbb52a45562c9346779c7d",
		"eps=0.1 seed=2":  "d78998cc30da09f9b112729283b54028bdcf22631183df8f1431d147df4ea30b",
		"eps=0.1 seed=3":  "1d0fa973fbbca090e778a182349b363dcb63b1fb2cb94ea056b6364c8da401c1",
		"eps=2 seed=1":    "2e300e809fee5dccfd5e5364e3d1fb4b63054b54ec094b5786da0770021c5f42",
		"eps=2 seed=2":    "95a57d4e5d385a5699b8359e140fccc7c63962ec870881caa62f5ca17cdff471",
		"eps=2 seed=3":    "61ac535b41d1a871dbc3f1878b7db908cfd929008a5b96a7df8113e80c14fc1a",
	}
	list, nl, nr, err := datagen.EdgeList(datagen.Config{
		Name: "build-golden", NumLeft: 60_000, NumRight: 90_000, NumEdges: 400_000,
		LeftZipf: 1.9, RightZipf: 2.8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := bipartite.FromEdges(nl, nr, list)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.01, 0.1, 2} {
		for seed := uint64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("eps=%g seed=%d", eps, seed)
			for _, workers := range []int{1, 4} {
				for _, source := range []struct {
					name string
					src  bipartite.EdgeSource
				}{{"graph", bipartite.NewGraphSource(g)}, {"slice", bipartite.NewSliceSource(nl, nr, list)}} {
					bis, err := partition.NewExpMechBisector(eps, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					tree, err := BuildFromEdges(source.src, Options{Rounds: 9, Bisector: bis, Workers: workers})
					if err != nil {
						t.Fatalf("%s workers=%d %s: %v", key, workers, source.name, err)
					}
					if got := goldenTreeDigest(t, tree); got != want[key] {
						t.Errorf("%s workers=%d %s: digest %s, pinned %s", key, workers, source.name, got, want[key])
					}
				}
			}
		}
	}
}
