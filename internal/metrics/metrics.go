// Package metrics computes the paper's evaluation metric (relative error
// rate) and assembles experiment output: summary statistics, named series,
// markdown/CSV tables, and ASCII renderings of figures for terminal use.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// RER returns the paper's relative error rate |P−T|/T for a perturbed
// answer P and true answer T. It returns NaN when T is zero (the paper's
// metric is undefined there).
func RER(perturbed, truth float64) float64 {
	if truth == 0 {
		return math.NaN()
	}
	return math.Abs(perturbed-truth) / math.Abs(truth)
}

// AbsError returns |P−T|.
func AbsError(perturbed, truth float64) float64 { return math.Abs(perturbed - truth) }

// ErrEmpty reports an aggregate over no values.
var ErrEmpty = errors.New("metrics: empty input")

// Summary holds order statistics of a sample.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	P95    float64 `json:"p95"`
	Max    float64 `json:"max"`
}

// Summarize computes a Summary of the sample.
func Summarize(values []float64) (Summary, error) {
	if len(values) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, v := range sorted {
		sum += v
		sumSq += v * v
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Min:    sorted[0],
		Median: quantileSorted(sorted, 0.5),
		P95:    quantileSorted(sorted, 0.95),
		Max:    sorted[len(sorted)-1],
	}, nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Series is one named curve of an experiment figure.
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// Validate checks that X and Y align.
func (s Series) Validate() error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("metrics: series %q has %d x values and %d y values", s.Name, len(s.X), len(s.Y))
	}
	if len(s.X) == 0 {
		return fmt.Errorf("metrics: series %q is empty: %w", s.Name, ErrEmpty)
	}
	return nil
}

// Table is a rendered experiment table.
type Table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// AddRow appends a row, stringifying each cell.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case int:
			row[i] = strconv.Itoa(v)
		case int64:
			row[i] = strconv.FormatInt(v, 10)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v == 0:
		return "0"
	case math.Abs(v) >= 0.001 && math.Abs(v) < 100000:
		return strconv.FormatFloat(v, 'f', 4, 64)
	default:
		return strconv.FormatFloat(v, 'e', 3, 64)
	}
}

// Markdown renders the table as GitHub-flavored markdown.
func (t Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
// Cells containing commas or quotes are quoted.
func (t Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Headers)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// PlotOptions configures RenderASCII.
type PlotOptions struct {
	// Width and Height are the plot area size in characters; defaults
	// 64x20.
	Width, Height int
	// LogY plots log10(y); zero or negative values clip to the floor.
	LogY bool
	// Title is printed above the plot.
	Title string
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
}

// RenderASCII draws the series as a character plot, one glyph per series,
// with a legend. It is the terminal stand-in for the paper's Figure 1.
func RenderASCII(series []Series, opts PlotOptions) (string, error) {
	if len(series) == 0 {
		return "", ErrEmpty
	}
	if opts.Width <= 0 {
		opts.Width = 64
	}
	if opts.Height <= 0 {
		opts.Height = 20
	}
	glyphs := []byte("ox*+#@%&$~^=")

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	transform := func(y float64) float64 {
		if !opts.LogY {
			return y
		}
		if y <= 0 {
			return math.NaN()
		}
		return math.Log10(y)
	}
	for _, s := range series {
		if err := s.Validate(); err != nil {
			return "", err
		}
		for i := range s.X {
			x, y := s.X[i], transform(s.Y[i])
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if math.IsInf(xmin, 1) {
		return "", fmt.Errorf("metrics: no finite points to plot: %w", ErrEmpty)
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, opts.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", opts.Width))
	}
	for si, s := range series {
		glyph := glyphs[si%len(glyphs)]
		for i := range s.X {
			x, y := s.X[i], transform(s.Y[i])
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			cx := int((x - xmin) / (xmax - xmin) * float64(opts.Width-1))
			cy := opts.Height - 1 - int((y-ymin)/(ymax-ymin)*float64(opts.Height-1))
			grid[cy][cx] = glyph
		}
	}

	var b strings.Builder
	if opts.Title != "" {
		fmt.Fprintf(&b, "%s\n", opts.Title)
	}
	yLo, yHi := ymin, ymax
	suffix := ""
	if opts.LogY {
		suffix = " (log10)"
	}
	fmt.Fprintf(&b, "y%s: [%.4g, %.4g]  x: [%.4g, %.4g]\n", suffix, yLo, yHi, xmin, xmax)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", opts.Width) + "+\n")
	if opts.XLabel != "" || opts.YLabel != "" {
		fmt.Fprintf(&b, "x: %s   y: %s\n", opts.XLabel, opts.YLabel)
	}
	b.WriteString("legend: ")
	for si, s := range series {
		if si > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%c=%s", glyphs[si%len(glyphs)], s.Name)
	}
	b.WriteString("\n")
	return b.String(), nil
}
