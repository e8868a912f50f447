package serve

import (
	"runtime"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/dp"
	"repro/internal/rng"
)

// liveHeap returns the bytes of live heap after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// sessionHeld opens a registry over a nine-round tree, runs queries on one fresh session and returns the
// live heap the session still holds afterwards and the level-0 side
// group count k.
func sessionHeld(t *testing.T, queries func(*Session) error) (held, k int) {
	t.Helper()
	cfg := Config{
		Budget:          dp.Params{Epsilon: 1e12, Delta: 0.5},
		PerQuery:        dp.Params{Epsilon: 1e-3, Delta: 1e-12},
		Rounds:          9,
		Seed:            71,
		MaxCacheEntries: -1,
	}
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	edges, nl, nr, err := datagen.EdgeList(datagen.Config{
		Name: "serve-memory", NumLeft: 2048, NumRight: 2048, NumEdges: 20000,
		LeftZipf: 1.9, RightZipf: 2.6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := reg.AddDataset("fine", bipartite.NewSliceSource(nl, nr, edges))
	if err != nil {
		t.Fatal(err)
	}
	if k, err = ds.Tree().NumSideGroups(0); err != nil {
		t.Fatal(err)
	}

	before := liveHeap()
	sess := ds.SessionAt(1)
	if err := queries(sess); err != nil {
		t.Fatal(err)
	}
	held = int(liveHeap()) - int(before)
	runtime.KeepAlive(sess)
	return held, k
}

// TestSessionMarginalRetainsNoHistogram: a session that answered a
// level-0 marginal and a level-0 top-k keeps one noise-chunk window
// (16 + 1 ziggurat blocks at most), the level's k marginal sums and the
// top-k permutation — not the level's 8·k² bytes of cells, which
// MaxSessions sessions would each pin for their whole life.
func TestSessionMarginalRetainsNoHistogram(t *testing.T) {
	held, k := sessionHeld(t, func(sess *Session) error {
		if _, err := sess.Marginal(0, bipartite.Left); err != nil {
			return err
		}
		_, err := sess.TopK(0, bipartite.Right, 5)
		return err
	})
	histogram := 8 * k * k
	t.Logf("k=%d: the session holds %d bytes; the level's histogram is %d", k, held, histogram)

	window := 8 * 17 * rng.ZigBlock
	vectors := 8*k + 8*k // the engine's sums and the top-k permutation
	if limit := window + vectors + 16<<10; held > limit || held >= histogram {
		t.Fatalf("a session after a level-0 marginal and top-k holds %d bytes, want at most %d (one %d-byte window, %d bytes of k=%d vectors, 16 KiB); the histogram is %d", held, limit, window, vectors, k, histogram)
	}
}
