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
// audit-bearing costs — must serialize byte-identically whether the
// pipeline ran on the Graph itself or over its TSV or binary encoding.
// The TSV declares no sides; both last ids of this graph have an edge, so
// the sides it yields are the graph's.
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
	relRun, err := newPipeline().Run(g)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := relRun.WriteJSON(&want, true); err != nil {
		t.Fatal(err)
	}

	var tsv, bin bytes.Buffer
	if err := bipartite.SaveTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	if err := bipartite.EncodeBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	for _, enc := range []struct {
		name string
		open func() (bipartite.EdgeSource, error)
	}{
		{"tsv", func() (bipartite.EdgeSource, error) {
			return bipartite.NewTSVEdgeSource(bytes.NewReader(tsv.Bytes()))
		}},
		{"binary", func() (bipartite.EdgeSource, error) {
			return bipartite.NewBinaryEdgeSource(bytes.NewReader(bin.Bytes()))
		}},
	} {
		src, err := enc.open()
		if err != nil {
			t.Fatal(err)
		}
		rel, err := newPipeline().RunFromEdges(src)
		if err != nil {
			t.Fatalf("%s: %v", enc.name, err)
		}
		var got bytes.Buffer
		if err := rel.WriteJSON(&got, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("release over the %s encoding differs from Run:\n--- Run ---\n%s\n--- %s ---\n%s",
				enc.name, want.String(), enc.name, got.String())
		}
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
