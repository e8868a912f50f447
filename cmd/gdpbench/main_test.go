package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/experiments"
)

// updateGolden rewrites testdata/quick.golden from the live code. A PR
// that moves a released value on purpose re-pins it in a commit of its
// own and quotes the moved rows, old → new.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick.golden from the live code")

// TestQuickEvaluationGolden pins the paper's evaluation the way the
// artifact goldens pin bytes: `gdpbench -exp all -quick` (seed 1) must
// print exactly testdata/quick.golden, except A6's wall-clock columns,
// which maskWallTime blanks on both sides. Every other row is a pure
// function of the seed, for any worker count, so a moved row is a moved
// utility number.
func TestQuickEvaluationGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "all", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	got := maskWallTime(out.String())
	path := filepath.Join("testdata", "quick.golden")
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
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got  %q\n  want %q", i+1, g, w)
		}
	}
}

// maskWallTime replaces every column but the first (the edge count) of
// the data rows in A6's scalability section with "*": those columns are
// wall-clock readings.
func maskWallTime(out string) string {
	lines := strings.Split(out, "\n")
	inA6 := false
	for i, l := range lines {
		if strings.HasPrefix(l, "## ") {
			inA6 = strings.HasPrefix(l, "## A6 ")
			continue
		}
		cells := strings.Split(l, " | ")
		if !inA6 || len(cells) < 2 || !strings.HasPrefix(l, "| ") || strings.Trim(cells[0], "| 0123456789") != "" {
			continue
		}
		for j := 1; j < len(cells); j++ {
			cells[j] = "*"
		}
		lines[i] = strings.Join(cells, " | ") + " |"
	}
	return strings.Join(lines, "\n")
}

func TestRunSingleExperimentQuick(t *testing.T) {
	if err := run([]string{"-exp", "adjacency", "-quick", "-seed", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithCSVOutput(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "mechanism", "-quick", "-csv", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no CSV written")
	}
	blob, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), ",") {
		t.Error("CSV content malformed")
	}
}

// writeEdgeFile generates a small synthetic dataset and saves it through
// the given codec.
func writeEdgeFile(t *testing.T, path, format string) {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{
		Name: "edges-test", NumLeft: 150, NumRight: 220, NumEdges: 2100,
		LeftZipf: 1.9, RightZipf: 2.8, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if format == "binary" {
		err = bipartite.EncodeBinary(f, g)
	} else {
		err = bipartite.SaveTSV(f, g)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunEdgesStreamedIngest drives -edges end to end for both file
// formats with verification on: the tree and release over the streamed
// file must match the ones over the loaded Graph byte for byte.
func TestRunEdgesStreamedIngest(t *testing.T) {
	for _, format := range []string{"tsv", "binary"} {
		t.Run(format, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "edges."+format)
			writeEdgeFile(t, path, format)
			err := run([]string{
				"-edges", path, "-rounds", "6", "-workers", "2", "-streamverify",
			}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunEdgesMissingFile(t *testing.T) {
	if err := run([]string{"-edges", filepath.Join(t.TempDir(), "nope.tsv")}, io.Discard); err == nil {
		t.Error("missing edge file accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "bogus"}, io.Discard); !errors.Is(err, experiments.ErrUnknownExperiment) {
		t.Errorf("unknown experiment: err = %v", err)
	}
	// The retired perf-record flags must fail loudly, so a stale CI line
	// or recipe cannot silently record nothing.
	for _, args := range [][]string{
		{"-exp", "adjacency", "-quick", "-benchjson", "out/"},
		{"-exp", "adjacency", "-quick", "-strategy", "all"},
	} {
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%v): err = %v, want the flag package's unknown-flag error", args, err)
		}
	}
}

func TestSanitize(t *testing.T) {
	t.Parallel()
	if got := sanitize("budget-split"); got != "budget-split" {
		t.Errorf("sanitize = %q", got)
	}
	if got := sanitize("We?ird/Name"); strings.ContainsAny(got, "?/ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		t.Errorf("sanitize left bad chars: %q", got)
	}
}
