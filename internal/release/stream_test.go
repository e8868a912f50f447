package release

import (
	"bytes"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/dp"
)

// TestRunFromEdgesMatchesRun pins the streamed pipeline end to end: the
// full artifact — dataset stats, profiles, noisy counts, cell histograms,
// audit-bearing costs — must serialize byte-identically whether
// Phase 1 ran over the materialized graph or over an edge stream of the
// same associations.
func TestRunFromEdgesMatchesRun(t *testing.T) {
	t.Parallel()
	g, err := datagen.Generate(datagen.Config{
		Name: "stream-release", NumLeft: 300, NumRight: 420, NumEdges: 4000,
		LeftZipf: 1.9, RightZipf: 2.8, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	newPipeline := func() *Pipeline {
		p, err := New(dp.Params{Epsilon: 0.6, Delta: 1e-5},
			WithRounds(6),
			WithSeed(42),
			WithPhase1Epsilon(0.2),
			WithCellHistograms(true),
		)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	relMem, err := newPipeline().Run(g)
	if err != nil {
		t.Fatal(err)
	}
	relStream, err := newPipeline().RunFromEdges(bipartite.NewGraphSource(g))
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := relMem.WriteJSON(&a, true); err != nil {
		t.Fatal(err)
	}
	if err := relStream.WriteJSON(&b, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("streamed release differs from in-memory release:\n--- in-memory ---\n%s\n--- streamed ---\n%s",
			a.String(), b.String())
	}
	if relStream.Tree().Graph() != nil {
		t.Fatal("streamed release unexpectedly materialized a graph")
	}
}

// TestRunFromEdgesNilSource rejects a nil source up front.
func TestRunFromEdgesNilSource(t *testing.T) {
	t.Parallel()
	p, err := New(dp.Params{Epsilon: 0.5, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunFromEdges(nil); err != ErrNilSource {
		t.Fatalf("got %v, want ErrNilSource", err)
	}
}
