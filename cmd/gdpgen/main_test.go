package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestRunPresetTSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.tsv")
	if err := run([]string{"-preset", "dblp-tiny", "-seed", "3", "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := repro.LoadTSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 10000 {
		t.Errorf("edges = %d", g.NumEdges())
	}
}

func TestRunPresetBinary(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.bpg")
	if err := run([]string{"-preset", "dblp-tiny", "-seed", "3", "-format", "binary", "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := repro.DecodeBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 10000 {
		t.Errorf("edges = %d", g.NumEdges())
	}
}

func TestRunCustomSizes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "c.tsv")
	err := run([]string{"-left", "30", "-right", "40", "-edges", "100", "-labels", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "left/") {
		t.Error("labels flag did not produce named output")
	}
}

// TestRunBadFormatWritesNothing: an unknown -format is refused before
// the -out file is created, so no empty file is left behind.
func TestRunBadFormatWritesNothing(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x")
	if err := run([]string{"-preset", "dblp-tiny", "-format", "bogus", "-out", out}); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("-out file left behind: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-preset", "bogus"},
		{"-preset", "dblp-tiny", "-format", "nope"},
		{"-left", "0", "-right", "0", "-edges", "5"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
