package release

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/dp"
)

// updateGolden rewrites testdata/matrix.golden from the live code. A PR
// that moves a released byte or an audit entry on purpose re-pins it in
// a commit of its own.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/matrix.golden from the live code")

// TestConfigMatrixGolden pins every budget mode end to end: for each of
// 4 modes × 3 strategies × cells on/off × Phase-1 ε ∈ {0, 0.2} × three
// budgets, the artifact's hash and the audit trail's hash, or "refused"
// when New or Run returns an error. The artifact goldens cover only the
// per-level default; this is the pin for the composed modes and for
// Audit, which the artifact does not carry.
func TestConfigMatrixGolden(t *testing.T) {
	t.Parallel()
	g := testGraph(t)
	budgets := []dp.Params{{Epsilon: 0.5, Delta: 1e-5}, {Epsilon: 2, Delta: 1e-3}, {Epsilon: 1}}
	var out strings.Builder
	for _, mode := range []Mode{ModePerLevel, ModeComposedBasic, ModeComposedAdvanced, ModeComposedRDP} {
		for _, strat := range Strategies.Names() {
			for _, cells := range []bool{false, true} {
				for _, p1 := range []float64{0, 0.2} {
					for _, b := range budgets {
						fmt.Fprintf(&out, "%s %s cells=%t p1=%v eps=%v delta=%v: %s\n",
							mode, strat, cells, p1, b.Epsilon, b.Delta,
							matrixOutcome(t, g, b, WithMode(mode), WithStrategy(strat),
								WithCellHistograms(cells), WithPhase1Epsilon(p1),
								WithRounds(6), WithSeed(3)))
					}
				}
			}
		}
	}
	got := out.String()
	path := filepath.Join("testdata", "matrix.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("got  %s\nwant %s", gl[i], wl[i])
		}
	}
}

// matrixOutcome runs one configuration and renders its artifact and
// audit hashes, or "refused".
func matrixOutcome(t *testing.T, g *bipartite.Graph, budget dp.Params, opts ...Option) string {
	t.Helper()
	p, err := New(budget, opts...)
	if err != nil {
		return "refused"
	}
	rel, err := p.Run(g)
	if err != nil {
		return "refused"
	}
	audit, err := json.Marshal(auditShape(rel.Audit))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(audit)
	return "artifact=" + artifactHash(t, rel)[:16] + " audit=" + hex.EncodeToString(sum[:8])
}

// auditEntry is the shape the golden's audit hashes were taken over:
// each op under its Go field names, {"Seq","Label","Cost":{"Epsilon",
// "Delta"}}. The hash pins the plan, not an encoding: no program
// encodes an accountant.Op.
type auditEntry struct {
	Seq   int
	Label string
	Cost  struct{ Epsilon, Delta float64 }
}

func auditShape(ops []accountant.Op) []auditEntry {
	out := make([]auditEntry, len(ops))
	for i, op := range ops {
		out[i].Seq, out[i].Label = op.Seq, op.Label
		out[i].Cost.Epsilon, out[i].Cost.Delta = op.Cost.Epsilon, op.Cost.Delta
	}
	return out
}
