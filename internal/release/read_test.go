package release

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/hierarchy"
	"repro/internal/query"
)

// publishedArtifact runs a pipeline and returns the publishable JSON.
func publishedArtifact(t testing.TB, opts ...Option) []byte {
	t.Helper()
	base := []Option{WithRounds(4), WithSeed(5), WithCellHistograms(true)}
	p, err := New(defaultBudget(), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := p.Run(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rel.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadJSONRoundTrip(t *testing.T) {
	t.Parallel()
	blob := publishedArtifact(t)
	rel, err := ReadJSON(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rounds != 4 || len(rel.Counts.Levels) != 3 || len(rel.Cells) != 3 {
		t.Errorf("artifact = rounds %d, %d counts, %d cells", rel.Rounds, len(rel.Counts.Levels), len(rel.Cells))
	}
	// Published artifacts carry no exact counts.
	for _, lr := range rel.Counts.Levels {
		if lr.TrueCount != 0 {
			t.Error("published artifact leaked true count")
		}
	}
	// Views work on loaded artifacts.
	v, err := rel.ViewFor(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cells == nil {
		t.Error("loaded artifact lost cell histograms")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	t.Parallel()
	if _, err := ReadJSON(strings.NewReader("not json")); !errors.Is(err, ErrBadArtifact) {
		t.Errorf("garbage: %v", err)
	}
	if _, err := ReadJSON(strings.NewReader("{}")); !errors.Is(err, ErrBadArtifact) {
		t.Errorf("empty object: %v", err)
	}
}

func TestReadJSONValidation(t *testing.T) {
	t.Parallel()
	blob := publishedArtifact(t)
	cases := []struct {
		name   string
		mutate func(*Release)
	}{
		{name: "level out of range", mutate: func(r *Release) { r.Counts.Levels[0].Level = 99 }},
		{name: "duplicate level", mutate: func(r *Release) { r.Counts.Levels[1].Level = r.Counts.Levels[0].Level }},
		{name: "negative sensitivity", mutate: func(r *Release) { r.Counts.Levels[0].Sensitivity = -1 }},
		{name: "zero level epsilon", mutate: func(r *Release) { r.Counts.Levels[0].Epsilon = 0 }},
		{name: "zero rounds", mutate: func(r *Release) { r.Rounds = 0 }},
		{name: "zero budget", mutate: func(r *Release) { r.BudgetEpsilon = 0 }},
		{name: "no levels", mutate: func(r *Release) { r.Counts.Levels = nil }},
		{name: "cell grid mismatch", mutate: func(r *Release) { r.Cells[0].SideGroups = 7 }},
		{name: "orphan cell release", mutate: func(r *Release) { r.Cells[0].Level = 99 }},
		{name: "rounds above the cap", mutate: func(r *Release) { r.Rounds = hierarchy.MaxRounds + 1 }},
		{name: "side groups above 2^rounds", mutate: func(r *Release) {
			k := 2 << r.Rounds
			r.Cells[0].SideGroups, r.Cells[0].Counts = k, make([]float64, k*k)
		}},
		// "side_groups":4294967296,"counts":[] — the square wraps to 0 and
		// used to match the empty counts; the next marginal then died in
		// a 32 GiB make.
		{name: "side groups squared wraps to zero", mutate: func(r *Release) {
			r.Cells[0].SideGroups, r.Cells[0].Counts = wrappingSideGroups, []float64{}
		}},
		{name: "second cell release for a level", mutate: func(r *Release) { r.Cells = append(r.Cells, r.Cells[0]) }},
		{name: "negative level sigma", mutate: func(r *Release) { r.Counts.Levels[0].Sigma = -1 }},
		{name: "negative level delta", mutate: func(r *Release) { r.Counts.Levels[0].Delta = -1e-6 }},
		{name: "negative cell sigma", mutate: func(r *Release) { r.Cells[0].Sigma = -1 }},
		{name: "negative cell delta", mutate: func(r *Release) { r.Cells[0].Delta = -1e-6 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var rel Release
			if err := json.Unmarshal(blob, &rel); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&rel)
			mutated, err := json.Marshal(&rel)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReadJSON(bytes.NewReader(mutated)); !errors.Is(err, ErrBadArtifact) {
				t.Errorf("error = %v, want ErrBadArtifact", err)
			}
		})
	}
}

// TestValidateArtifactNonFinite exercises the non-finite checks directly;
// valid JSON cannot carry NaN/Inf, but in-memory artifacts can.
func TestValidateArtifactNonFinite(t *testing.T) {
	t.Parallel()
	blob := publishedArtifact(t)
	for name, mutate := range map[string]func(*Release){
		"nan noisy count": func(r *Release) { r.Counts.Levels[0].NoisyCount = math.NaN() },
		"inf cell count":  func(r *Release) { r.Cells[0].Counts[0] = math.Inf(1) },
		"nan level sigma": func(r *Release) { r.Counts.Levels[0].Sigma = math.NaN() },
		"inf level delta": func(r *Release) { r.Counts.Levels[0].Delta = math.Inf(1) },
		"inf cell sigma":  func(r *Release) { r.Cells[0].Sigma = math.Inf(1) },
		"nan cell delta":  func(r *Release) { r.Cells[0].Delta = math.NaN() },
	} {
		var rel Release
		if err := json.Unmarshal(blob, &rel); err != nil {
			t.Fatal(err)
		}
		mutate(&rel)
		if err := validateArtifact(&rel); !errors.Is(err, ErrBadArtifact) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// fractionalCellsArtifact is an artifact as written before released
// cells became integers: float cells with fractional parts. The JSON
// type of a count did not change, so it still loads.
const fractionalCellsArtifact = `{"rounds":1,"budget_epsilon":1,"counts":{"levels":[{"level":0,"epsilon":1,"noisy_count":3.25}]},` +
	`"cells":[{"level":0,"side_groups":2,"counts":[1.5,-0.25,7.000001,-3.75]}]}`

// retiredStrategyArtifact is the same artifact as written by
// community-gaussian, a strategy that is no longer built in. Reading
// resolves no strategy, so the name is data and the artifact still loads.
var retiredStrategyArtifact = `{"strategy":"community-gaussian",` + fractionalCellsArtifact[1:]

// TestReadJSONAcceptsFractionalCells: older artifacts keep loading, and
// their cells and marginals come back exactly as written.
func TestReadJSONAcceptsFractionalCells(t *testing.T) {
	t.Parallel()
	for _, blob := range []string{fractionalCellsArtifact, retiredStrategyArtifact} {
		rel, err := ReadJSON(strings.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		view, err := rel.ViewFor(0)
		if err != nil || view.Cells == nil {
			t.Fatalf("view: %+v, %v", view, err)
		}
		m, err := query.MarginalCounts(*view.Cells, bipartite.Left)
		if err != nil {
			t.Fatal(err)
		}
		if want := []float64{1.5 - 0.25, 7.000001 - 3.75}; m[0] != want[0] || m[1] != want[1] {
			t.Errorf("marginals %v, want %v", m, want)
		}
	}
}

// wrappingSideGroups is 2^32 where int holds it: its square is 0 in
// 64-bit arithmetic.
var wrappingSideGroups = int(int64(1) << 32)

// FuzzReadRelease holds ReadJSON to the consumer's contract: it never
// panics, and whatever it accepts, every released level's view and both
// marginals of every cell histogram can be computed.
func FuzzReadRelease(f *testing.F) {
	// Small seeds: the fuzzer spends its time minimizing what it finds,
	// and a four-round artifact is 20 kB of cells.
	f.Add(publishedArtifact(f, WithRounds(1)))
	f.Add([]byte(`{"rounds":3,"budget_epsilon":1,"counts":{"levels":[{"level":1,"epsilon":0.5,"noisy_count":10}]},` +
		`"cells":[{"level":1,"side_groups":4294967296,"counts":[]}]}`))
	f.Add([]byte(`{"rounds":1,"budget_epsilon":1,"counts":{"levels":[{"level":0,"epsilon":1,"noisy_count":3}]},` +
		`"cells":[{"level":0,"side_groups":2,"counts":[1,0,0,2]}]}`))
	f.Add([]byte(fractionalCellsArtifact))
	f.Add([]byte(retiredStrategyArtifact))
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadArtifact) {
				t.Fatalf("refusal is not ErrBadArtifact: %v", err)
			}
			return
		}
		for _, level := range rel.Levels() {
			view, err := rel.ViewFor(level)
			if err != nil {
				t.Fatalf("accepted artifact has no view for level %d: %v", level, err)
			}
			if view.Cells == nil {
				continue
			}
			for _, side := range []bipartite.Side{bipartite.Left, bipartite.Right} {
				m, err := query.MarginalCounts(*view.Cells, side)
				if err != nil || len(m) != view.Cells.SideGroups {
					t.Fatalf("level %d %v marginal of an accepted artifact: %d groups, %v", level, side, len(m), err)
				}
			}
		}
	})
}
