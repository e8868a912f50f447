package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/experiments"
)

func TestRunSingleExperimentQuick(t *testing.T) {
	if err := run([]string{"-exp", "adjacency", "-quick", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithCSVOutput(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "mechanism", "-quick", "-csv", dir}); err != nil {
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
// formats with verification on: the streamed release must match the
// in-memory path byte for byte.
func TestRunEdgesStreamedIngest(t *testing.T) {
	for _, format := range []string{"tsv", "binary"} {
		t.Run(format, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "edges."+format)
			writeEdgeFile(t, path, format)
			err := run([]string{
				"-edges", path, "-rounds", "6", "-workers", "2", "-streamverify",
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunEdgesMissingFile(t *testing.T) {
	if err := run([]string{"-edges", filepath.Join(t.TempDir(), "nope.tsv")}); err == nil {
		t.Error("missing edge file accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "bogus"}); !errors.Is(err, experiments.ErrUnknownExperiment) {
		t.Errorf("unknown experiment: err = %v", err)
	}
	// The retired perf-record flags must fail loudly, so a stale CI line
	// or recipe cannot silently record nothing.
	for _, args := range [][]string{
		{"-exp", "adjacency", "-quick", "-benchjson", "out/"},
		{"-exp", "adjacency", "-quick", "-strategy", "all"},
	} {
		err := run(args)
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
