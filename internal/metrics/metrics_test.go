package metrics

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestRER(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name      string
		perturbed float64
		truth     float64
		want      float64
	}{
		{name: "exact", perturbed: 100, truth: 100, want: 0},
		{name: "over", perturbed: 110, truth: 100, want: 0.1},
		{name: "under", perturbed: 65, truth: 100, want: 0.35},
		{name: "negative truth", perturbed: -90, truth: -100, want: 0.1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := RER(tc.perturbed, tc.truth); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("RER = %v, want %v", got, tc.want)
			}
		})
	}
	if !math.IsNaN(RER(5, 0)) {
		t.Error("RER with zero truth should be NaN")
	}
}

func TestAbsError(t *testing.T) {
	t.Parallel()
	if AbsError(3, 5) != 2 || AbsError(5, 3) != 2 {
		t.Error("AbsError wrong")
	}
}

func TestSummarize(t *testing.T) {
	t.Parallel()
	s, err := Summarize([]float64{4, 1, 3, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	wantStd := math.Sqrt(2) // population std of 1..5
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, wantStd)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty error = %v", err)
	}
}

func TestSeriesValidate(t *testing.T) {
	t.Parallel()
	ok := Series{Name: "a", X: []float64{1}, Y: []float64{2}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid series rejected: %v", err)
	}
	bad := Series{Name: "b", X: []float64{1, 2}, Y: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched series accepted")
	}
	empty := Series{Name: "c"}
	if err := empty.Validate(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty series error = %v", err)
	}
}

func TestTableMarkdown(t *testing.T) {
	t.Parallel()
	tab := Table{Title: "Demo", Headers: []string{"level", "rer"}}
	tab.AddRow(7, 0.35)
	tab.AddRow("I9,1", 0.002)
	tab.AddRow(int64(42), 1e-9)
	md := tab.Markdown()
	for _, want := range []string{"### Demo", "| level | rer |", "| --- | --- |", "| 7 | 0.3500 |", "I9,1", "1.000e-09"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q in:\n%s", want, md)
		}
	}
}

func TestTableCSV(t *testing.T) {
	t.Parallel()
	tab := Table{Headers: []string{"a", "b"}}
	tab.AddRow("x,y", `quote"d`)
	tab.AddRow(1, 2)
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"quote""d"`) {
		t.Errorf("quote cell not escaped: %s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Errorf("csv has %d lines, want 3", len(lines))
	}
}

func TestRenderASCIIBasic(t *testing.T) {
	t.Parallel()
	series := []Series{
		{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
		{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
	}
	out, err := RenderASCII(series, PlotOptions{Title: "T", Width: 30, Height: 10, XLabel: "eps", YLabel: "rer"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T", "o=up", "x=down", "x: eps   y: rer"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "o") || !strings.Contains(out, "x") {
		t.Error("plot missing glyphs")
	}
}

func TestRenderASCIILogY(t *testing.T) {
	t.Parallel()
	series := []Series{{Name: "s", X: []float64{1, 2, 3}, Y: []float64{0.001, 0.1, 10}}}
	out, err := RenderASCII(series, PlotOptions{LogY: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "log10") {
		t.Errorf("log plot missing annotation:\n%s", out)
	}
}

func TestRenderASCIIErrors(t *testing.T) {
	t.Parallel()
	if _, err := RenderASCII(nil, PlotOptions{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty input error = %v", err)
	}
	bad := []Series{{Name: "b", X: []float64{1}, Y: []float64{1, 2}}}
	if _, err := RenderASCII(bad, PlotOptions{}); err == nil {
		t.Error("mismatched series accepted")
	}
	// All-NaN after log transform.
	nan := []Series{{Name: "n", X: []float64{1}, Y: []float64{-5}}}
	if _, err := RenderASCII(nan, PlotOptions{LogY: true}); err == nil {
		t.Error("no finite points accepted")
	}
}

func TestRenderASCIIConstantSeries(t *testing.T) {
	t.Parallel()
	// Degenerate ranges (single point) must not divide by zero.
	series := []Series{{Name: "pt", X: []float64{5}, Y: []float64{5}}}
	if _, err := RenderASCII(series, PlotOptions{}); err != nil {
		t.Fatalf("constant series failed: %v", err)
	}
}
