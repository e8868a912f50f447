package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// The reference side of the differential tests: the response shapes as
// the handlers built them before encode.go — a map[string]any per query
// kind, the errorBody struct — through encoding/json's Encoder with
// SetIndent("", "  ").

// refErrorBody is the error shape the handlers marshalled.
type refErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func refEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func refLevel(dataset string, seq, stream uint64, view LevelView) map[string]any {
	return map[string]any{"dataset": dataset, "stream": stream, "seq": seq, "view": view}
}

func refMarginal(dataset string, seq, stream uint64, level int, side string, marginals []float64) map[string]any {
	return map[string]any{
		"dataset": dataset, "stream": stream, "seq": seq,
		"level": level, "side": side, "marginals": marginals,
	}
}

func refTopK(dataset string, seq, stream uint64, level int, side string, k int, groups []int) map[string]any {
	return map[string]any{
		"dataset": dataset, "stream": stream, "seq": seq,
		"level": level, "side": side, "k": k, "groups": groups,
	}
}

// checkAgainstReference holds one encoder output to the reference: the
// same bytes, or — when encoding/json refuses a scalar (NaN, ±Inf) —
// errNonFinite. counts are the response's count and marginal arrays:
// when one of them holds a value that is not a count, the encoder must
// refuse it with errNotCount (or with errNonFinite, when a non-finite
// scalar comes first).
func checkAgainstReference(t *testing.T, shape string, got []byte, gotErr error, ref any, counts ...[]float64) {
	t.Helper()
	want, wantErr := refEncode(ref)
	for _, c := range counts {
		if !isCounts(c) {
			if gotErr != errNotCount && !(gotErr == errNonFinite && wantErr != nil) {
				t.Fatalf("%s: a released count that is not an integer below 2^53 was encoded (err=%v)", shape, gotErr)
			}
			return
		}
	}
	if wantErr != nil {
		if gotErr != errNonFinite {
			t.Fatalf("%s: encoding/json refused the value (%v) but the encoder returned err=%v", shape, wantErr, gotErr)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("%s: encoder failed (%v) on a value encoding/json accepts", shape, gotErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder bytes differ from encoding/json\n got: %q\nwant: %q", shape, got, want)
	}
}

// isCounts is the reference for appendCountArray's admission check:
// every value is a whole number below 2^53 in magnitude and not −0.
func isCounts(fs []float64) bool {
	for _, f := range fs {
		if f != math.Trunc(f) || !(math.Abs(f) < 1<<53) || (f == 0 && math.Signbit(f)) {
			return false
		}
	}
	return true
}

// integral maps a fuzzed float to a count the encoders must accept: its
// integer part wrapped below 2^53, with NaN, ±Inf and −0 mapped to 0.
func integral(fs []float64) []float64 {
	if fs == nil {
		return nil
	}
	out := make([]float64, len(fs))
	for i, f := range fs {
		if f = math.Trunc(math.Mod(f, 1<<53)); f == f && f != 0 {
			out[i] = f
		}
	}
	return out
}

// floatsToBytes packs floats as the fuzz target's raw input; the target
// unpacks 8 bytes per value, so the fuzzer mutates bit patterns.
func floatsToBytes(fs ...float64) []byte {
	raw := make([]byte, 0, 8*len(fs))
	for _, f := range fs {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(f))
	}
	return raw
}

func floatsFromBytes(raw []byte) []float64 {
	fs := make([]float64, 0, len(raw)/8)
	for ; len(raw) >= 8; raw = raw[8:] {
		fs = append(fs, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
	}
	return fs
}

// floatAt returns fs[i], or a fixed finite value past the end, so short
// fuzz inputs still fill every scalar field.
func floatAt(fs []float64, i int) float64 {
	if i < len(fs) {
		return fs[i]
	}
	return 0.5 + float64(i)
}

// edgeFloats are the values where encoding/json's number format changes
// or strconv is most likely to disagree with a hand-rolled formatter.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072014e-308,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, -math.Nextafter(1e-6, 0),
	1e-7, 1.5e-9, -1e-10, 1.25e-100,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, -math.Nextafter(1e21, 0),
	1e20, 123456789012345680000, 1e22, 1e100,
	math.MaxFloat64, -math.MaxFloat64,
	0.12345678901234568, 12345.678901234567, 5e-324, 9007199254740993, 4.35, 2.675,
}

func FuzzEncodeQueryResponses(f *testing.F) {
	f.Add("dblp", uint64(7), uint64(0), 2, 5, floatsToBytes(edgeFloats...))
	f.Add("a<b>&c\"d\\e", uint64(math.MaxUint64), uint64(math.MaxUint64), -3, 0, floatsToBytes(1.5, -2.25, 3))
	f.Add("ctl\x00\x01\b\f\n\r\t\x1f\x7f", uint64(1), uint64(2), 0, 1, []byte{})
	f.Add("bad\xff\xfeutf8\xc3(\xe2\x82", uint64(3), uint64(4), 9, 2, floatsToBytes(0))
	f.Add("sep\u2028and\u2029\u00e9\u2603\U0001F600", uint64(5), uint64(6), 12, 3, floatsToBytes(edgeFloats[:8]...))
	f.Add("", uint64(0), uint64(0), 0, 10, floatsToBytes(1, 2, 3, 4, 5, math.NaN()))
	f.Add("inf", uint64(0), uint64(0), 0, 4, floatsToBytes(math.Inf(1)))
	f.Add("neginf", uint64(0), uint64(0), 0, 4, floatsToBytes(1, 2, 3, 4, 5, 6, math.Inf(-1)))
	// Counts as the kernel releases them, the edges of the count range,
	// and the values the count encoder must refuse.
	f.Add("ints", uint64(1), uint64(2), 3, 1, floatsToBytes(0.5, 1e-5, 2, 3, 4, 0, 1, -1, 9, -10, 99, -100, 12345, -6789012))
	f.Add("edge", uint64(1), uint64(2), 3, 3, floatsToBytes(0.5, 1e-5, 2, 3, 4, 1<<53-1, -(1<<53-1), 1<<52+1, 1<<53, -(1<<53)))
	f.Add("frac", uint64(1), uint64(2), 3, 7, floatsToBytes(0.5, 1e-5, 2, 3, 4, 7, 1.5, -2.5, 0.1))
	f.Add("negzero", uint64(1), uint64(2), 3, 9, floatsToBytes(0.5, 1e-5, 2, 3, 4, 3, math.Copysign(0, -1)))
	f.Add("nancount", uint64(1), uint64(2), 3, 11, floatsToBytes(0.5, 1e-5, 2, 3, 4, 8, math.NaN(), math.Inf(1)))
	// Where the digit writer's count and pair loop change: one each
	// side of every power of ten, both signs (and, mapped to ints, the
	// top-k ids).
	f.Add("digits", uint64(10), uint64(99), 100, 7, floatsToBytes(append([]float64{0.5, 1e-5, 2, 3, 4}, digitBoundaries()...)...))

	f.Fuzz(func(t *testing.T, name string, stream, seq uint64, level, k int, raw []byte) {
		fs := floatsFromBytes(raw)
		half := len(name) / 2
		side := name[half:]

		// The scalar fields take the first five floats and the histogram
		// the rest; k steers the nil / empty / absent variants. Each
		// array runs twice: as fuzzed (mostly refused: not counts) and
		// mapped to counts (accepted, byte for byte).
		var counts []float64
		if len(fs) > 5 {
			counts = fs[5:]
		} else if k%2 == 0 {
			counts = []float64{}
		}
		// The marginal takes every float, so the scalar seeds reach an
		// array position too.
		marginals := fs
		if len(fs) == 0 && k%2 == 0 {
			marginals = nil
		}
		for _, countsOf := range []func([]float64) []float64{
			func(fs []float64) []float64 { return fs },
			integral,
		} {
			cells := countsOf(counts)
			view := LevelView{
				Level: level,
				Count: core.LevelRelease{
					Level: level, ModelName: name, CalibName: side, MechName: name[:half],
					Epsilon: floatAt(fs, 0), Delta: floatAt(fs, 1), Sensitivity: int64(seq),
					Sigma: floatAt(fs, 2), TrueCount: int64(stream), NoisyCount: floatAt(fs, 3),
					RER: floatAt(fs, 4),
				},
			}
			if k%5 != 0 {
				view.Cells = &core.CellRelease{
					Level: level, ModelName: side, CalibName: name, MechName: name[:half],
					Epsilon: floatAt(fs, 1), Delta: floatAt(fs, 2), Sensitivity: int64(stream),
					Sigma: floatAt(fs, 0), Counts: cells, SideGroups: k,
				}
			} else {
				cells = nil
			}
			got, err := appendLevelResponse(nil, name, seq, stream, view)
			checkAgainstReference(t, "level", got, err, refLevel(name, seq, stream, view), cells)

			m := countsOf(marginals)
			got, err = appendMarginalResponse(nil, name, seq, stream, level, side, m)
			checkAgainstReference(t, "marginal", got, err, refMarginal(name, seq, stream, level, side, m), m)
		}

		// Every float also reaches a scalar field: one cell-less /level
		// encode per further window of five, so each seeded number-format
		// boundary runs through appendFloat.
		for w := fs; len(w) > 5; {
			w = w[5:]
			view := LevelView{Level: level, Count: core.LevelRelease{
				Level: level, ModelName: name, Epsilon: floatAt(w, 0), Delta: floatAt(w, 1),
				Sigma: floatAt(w, 2), NoisyCount: floatAt(w, 3), RER: floatAt(w, 4),
			}}
			got, err := appendLevelResponse(nil, name, seq, stream, view)
			checkAgainstReference(t, "level scalars", got, err, refLevel(name, seq, stream, view))
		}

		var groups []int
		if k%3 != 0 {
			groups = make([]int, 0, len(raw)+len(fs))
			for i, c := range raw {
				groups = append(groups, (int(c)-128)*(i+1)*level)
			}
			for _, f := range integral(fs) {
				groups = append(groups, int(f))
			}
		}
		got := appendTopKResponse(nil, name, seq, stream, level, side, k, groups)
		checkAgainstReference(t, "topk", got, nil, refTopK(name, seq, stream, level, side, k, groups))

		got = appendErrorBody(nil, name, side)
		checkAgainstReference(t, "error", got, nil, refErrorBody{Error: name, Code: side})
	})
}

// digitBoundaries are 10^k − 1, 10^k and 10^k + 1 for k = 0..15 and
// ±(2^53 − 1), each with both signs.
func digitBoundaries() []float64 {
	var fs []float64
	for k, p := 0, 1.0; k <= 15; k, p = k+1, p*10 {
		fs = append(fs, p-1, p, p+1, 1-p, -p, -p-1)
	}
	return append(fs, 1<<53-1, -(1<<53 - 1))
}

// TestAppendCountArrayMatchesStrconv holds the digit writer to
// strconv.AppendInt at every digit-count boundary of a count, under
// both indents the responses use, after a prefix, one value per array
// and all in one; the top-k id array also gets the ends of int64.
func TestAppendCountArrayMatchesStrconv(t *testing.T) {
	counts := digitBoundaries()
	ints := []int{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	for _, f := range counts {
		ints = append(ints, int(f))
	}
	want := func(prefix string, xs []int, indent string) string {
		b := []byte(prefix)
		for i, x := range xs {
			if i == 0 {
				b = append(b, '[')
			} else {
				b = append(b, ',')
			}
			b = append(b, indent...)
			b = strconv.AppendInt(b, int64(x), 10)
		}
		b = append(b, indent[:len(indent)-2]...)
		return string(append(b, ']'))
	}
	for _, indent := range []string{"\n    ", "\n        "} {
		for i, f := range counts {
			got, err := appendCountArray([]byte("x"), counts[i:i+1], indent)
			if w := want("x", []int{int(f)}, indent); err != nil || string(got) != w {
				t.Fatalf("appendCountArray([%v]) = %q, %v; want %q", f, got, err, w)
			}
		}
		got, err := appendCountArray([]byte("x"), counts, indent)
		if w := want("x", ints[4:], indent); err != nil || string(got) != w {
			t.Fatalf("appendCountArray(boundaries) = %q, %v\nwant %q", got, err, w)
		}
		for i, x := range ints {
			if got, w := appendIntArray([]byte("x"), ints[i:i+1], indent), want("x", []int{x}, indent); string(got) != w {
				t.Fatalf("appendIntArray([%d]) = %q, want %q", x, got, w)
			}
		}
		if got, w := appendIntArray([]byte("x"), ints, indent), want("x", ints, indent); string(got) != w {
			t.Fatalf("appendIntArray(boundaries) = %q\nwant %q", got, w)
		}
	}
}

// fillJSONFields sets every exported field encoding/json would emit to
// a distinct non-zero value (so omitempty fields appear), following
// pointers and nested structs. A kind it does not know fails the test:
// the encoders would not know it either.
func fillJSONFields(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() || strings.Split(sf.Tag.Get("json"), ",")[0] == "-" {
			continue
		}
		*next++
		f := v.Field(i)
		if f.Kind() == reflect.Pointer {
			f.Set(reflect.New(f.Type().Elem()))
			f = f.Elem()
		}
		switch {
		case f.Kind() == reflect.Struct:
			fillJSONFields(t, f, next)
		case f.CanInt():
			f.SetInt(int64(*next))
		case f.CanFloat():
			f.SetFloat(float64(*next) + 0.125)
		case f.Kind() == reflect.String:
			f.SetString(fmt.Sprintf("<%s&%d>", sf.Name, *next))
		case f.Type() == reflect.TypeOf([]float64(nil)): // released counts are integers
			f.Set(reflect.ValueOf([]float64{float64(*next), -float64(*next) - 1}))
		default:
			t.Fatalf("%s.%s has kind %s: teach fillJSONFields and the /level encoder about it",
				v.Type(), sf.Name, f.Kind())
		}
	}
}

// TestEncodersCoverEveryField: with every JSON-visible field of
// LevelView, core.LevelRelease and core.CellRelease non-zero, the /level
// encoder still matches encoding/json — so a field added to core later
// fails here instead of silently vanishing from the served view.
func TestEncodersCoverEveryField(t *testing.T) {
	var view LevelView
	next := 0
	fillJSONFields(t, reflect.ValueOf(&view).Elem(), &next)
	if view.Cells == nil || len(view.Cells.Counts) == 0 || view.Count.RER == 0 || view.Count.TrueCount == 0 {
		t.Fatalf("fill left a JSON field zero: %+v", view)
	}
	got, err := appendLevelResponse(nil, "d", 1, 2, view)
	checkAgainstReference(t, "level", got, err, refLevel("d", 1, 2, view))
}

// benchLevelView is a level-3-sized view: 64 × 64 noisy cells around
// small true counts, rounded to integers as core.ReleaseCells releases
// them.
func benchLevelView() LevelView {
	rnd := rand.New(rand.NewSource(1))
	counts := make([]float64, 4096)
	for i := range counts {
		counts[i] = float64(int64(math.RoundToEven(float64(rnd.Intn(40)) + 38.7*rnd.NormFloat64())))
	}
	return LevelView{
		Level: 3,
		Count: core.LevelRelease{
			Level: 3, ModelName: "cells", CalibName: "analytic", MechName: "gaussian",
			Epsilon: 0.05, Delta: 1e-7, Sensitivity: 812, Sigma: 57712.345678901234,
			NoisyCount: 2000123.4567890123,
		},
		Cells: &core.CellRelease{
			Level: 3, ModelName: "cells", CalibName: "analytic",
			Epsilon: 0.05, Delta: 1e-7, Sensitivity: 812, Sigma: 38.712345678901234,
			Counts: counts, SideGroups: 64,
		},
	}
}

// benchMarginals is a level-3 marginal: 64 sums of integer cells.
func benchMarginals() []float64 {
	rnd := rand.New(rand.NewSource(2))
	m := make([]float64, 64)
	for i := range m {
		m[i] = float64(int64(math.RoundToEven(float64(rnd.Intn(30000)) + 310*rnd.NormFloat64())))
	}
	return m
}

var encodeSink []byte

func BenchmarkEncodeLevelView(b *testing.B) {
	view := benchLevelView()
	buf, err := appendLevelResponse(nil, "bench", 0, 7, view)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = appendLevelResponse(buf[:0], "bench", uint64(i), 7, view)
	}
	encodeSink = buf
}

func BenchmarkEncodeMarginal(b *testing.B) {
	m := benchMarginals()
	buf, err := appendMarginalResponse(nil, "bench", 0, 7, 3, "left", m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = appendMarginalResponse(buf[:0], "bench", uint64(i), 7, 3, "left", m)
	}
	encodeSink = buf
}

// TestEncodersAllocationFree: into a buffer that already has the
// capacity, the two hot encoders allocate nothing.
func TestEncodersAllocationFree(t *testing.T) {
	view, m := benchLevelView(), benchMarginals()
	buf, _ := appendLevelResponse(nil, "bench", 0, 7, view)
	if n := testing.AllocsPerRun(20, func() {
		buf, _ = appendLevelResponse(buf[:0], "bench", 1, 7, view)
	}); n != 0 {
		t.Errorf("appendLevelResponse: %v allocs/op into a sized buffer, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = appendMarginalResponse(buf[:0], "bench", 1, 7, 3, "left", m)
	}); n != 0 {
		t.Errorf("appendMarginalResponse: %v allocs/op into a sized buffer, want 0", n)
	}
}
