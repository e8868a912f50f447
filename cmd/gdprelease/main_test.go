package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/release"
)

func TestRunPresetToJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rel.json")
	err := run([]string{
		"-preset", "dblp-tiny", "-eps", "0.9", "-rounds", "5",
		"-seed", "7", "-cells", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rel, err := repro.ReadRelease(f)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rounds != 5 || len(rel.Counts.Levels) != 4 || len(rel.Cells) != 4 {
		t.Errorf("artifact = %d rounds, %d levels, %d cells", rel.Rounds, len(rel.Counts.Levels), len(rel.Cells))
	}
	// Published by default: no true counts.
	for _, lr := range rel.Counts.Levels {
		if lr.TrueCount != 0 {
			t.Error("default output leaked true count")
		}
	}
}

func TestRunFromTSVFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "g.tsv")
	if err := os.WriteFile(in, []byte("0\t0\n0\t1\n1\t0\n1\t1\n2\t2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "rel.json")
	err := run([]string{"-in", in, "-eps", "0.9", "-rounds", "2", "-seed", "4",
		"-levels", "0", "-include-true", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rel, err := repro.ReadRelease(f)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Counts.Levels[0].TrueCount != 5 {
		t.Errorf("true count = %d, want 5", rel.Counts.Levels[0].TrueCount)
	}
}

func TestRunArgumentErrors(t *testing.T) {
	cases := [][]string{
		{},                                     // neither -preset nor -in
		{"-preset", "x", "-in", "y"},           // both
		{"-preset", "dblp-tiny", "-mode", "?"}, // bad mode
		{"-preset", "dblp-tiny", "-model", "?"},
		{"-preset", "dblp-tiny", "-calib", "?"},
		{"-preset", "dblp-tiny", "-mech", "?"},
		{"-preset", "dblp-tiny", "-levels", "a,b"},
		{"-in", "/nonexistent/file.tsv"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunRepeatedLevelWritesNothing: a level listed twice would be
// charged twice and published as an artifact ReadRelease refuses; the
// pipeline refuses it first, before the -out file exists.
func TestRunRepeatedLevelWritesNothing(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rel.json")
	err := run([]string{"-preset", "dblp-tiny", "-rounds", "4", "-seed", "3", "-levels", "2,2", "-out", out})
	if !errors.Is(err, release.ErrBadOption) {
		t.Fatalf("-levels 2,2: got %v, want ErrBadOption", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("-out file written: %v", err)
	}
}

func TestParseHelpers(t *testing.T) {
	t.Parallel()
	if m, err := parseMode("composed-rdp"); err != nil || m != release.ModeComposedRDP {
		t.Errorf("parseMode = %v, %v", m, err)
	}
	if m, err := parseModel("node-groups"); err != nil || m != core.ModelNodeGroups {
		t.Errorf("parseModel = %v, %v", m, err)
	}
	if c, err := parseCalib("analytic"); err != nil || c != core.CalibrationAnalytic {
		t.Errorf("parseCalib = %v, %v", c, err)
	}
	if n, err := parseMech("geometric"); err != nil || n != core.MechGeometric {
		t.Errorf("parseMech = %v, %v", n, err)
	}
	lv, err := parseLevels("0, 2,4")
	if err != nil || len(lv) != 3 || lv[1] != 2 {
		t.Errorf("parseLevels = %v, %v", lv, err)
	}
}
