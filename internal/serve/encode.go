package serve

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
)

// Append-style encoders for the hot response shapes: /level, /marginal,
// /topk and the error body. Each appends one complete response — the
// bytes encoding/json's Encoder with SetIndent("", "  ") produces for
// the same values (map keys sorted, struct fields in declaration order,
// omitempty honoured, trailing newline) — to a caller-owned buffer, so
// a 4 096-cell level view costs its float formatting and not a
// reflective walk, a compact pass and an indent pass. Released cells and
// marginals are integers (core.ReleaseCells rounds them), so the arrays
// go out through strconv.AppendInt: a 4 096-cell view is ≈ 60 KB.
// encode_test.go holds them to encoding/json byte for byte.

// errNonFinite reports a NaN or ±Inf in a response. JSON has no literal
// for either (encoding/json refuses them with UnsupportedValueError), so
// the response fails closed instead of shipping a body no client parses.
var errNonFinite = errors.New("serve: non-finite value in response")

// errNotCount reports a released count or marginal that is not an
// integer of magnitude below 2^53, or is −0: the kernel never releases
// one, so the response fails closed rather than write a value the count
// encoder cannot write the way encoding/json would.
var errNotCount = errors.New("serve: released count is not an integer")

// finite reports whether every value has a JSON number form.
func finite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// appendFloat formats a finite scalar (ε, δ, σ, noisy_count, rer) the
// way encoding/json does (the ES6 number-to-string rules): shortest
// round-trip digits, positional unless |f| < 1e-6 or ≥ 1e21, and a
// one-digit negative exponent without its padding zero (1e-07 → 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString quotes s with encoding/json's escaping, HTML-escape on:
// ", \ and the short control escapes; \u00XX for other control bytes
// and for <, > and &; \ufffd for each invalid UTF-8 byte; U+2028 and
// U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendCountArray appends integer-valued counts as an indented array
// of integers. indent is the newline plus leading spaces of an element;
// the closing bracket sits one step (two spaces) further out. nil
// encodes as null and an empty slice as [], as encoding/json has them.
// One check per value admits exactly the floats in (−2^53, 2^53) that
// equal an integer, +0 included and −0 not; NaN and ±Inf fail it too.
func appendCountArray(b []byte, fs []float64, indent string) ([]byte, error) {
	if len(fs) == 0 {
		if fs == nil {
			return append(b, "null"...), nil
		}
		return append(b, "[]"...), nil
	}
	sep := byte('[')
	for _, f := range fs {
		i := int64(f)
		if float64(i) != f || i >= 1<<53 || i <= -1<<53 || math.Float64bits(f) == 1<<63 {
			return b, errNotCount
		}
		b = append(b, sep)
		b = append(b, indent...)
		b = strconv.AppendInt(b, i, 10)
		sep = ','
	}
	b = append(b, indent[:len(indent)-2]...)
	return append(b, ']'), nil
}

// appendIntArray is appendCountArray for the top-k group ids.
func appendIntArray(b []byte, xs []int, indent string) []byte {
	if len(xs) == 0 {
		if xs == nil {
			return append(b, "null"...)
		}
		return append(b, "[]"...)
	}
	sep := byte('[')
	for _, x := range xs {
		b = append(b, sep)
		b = append(b, indent...)
		b = strconv.AppendInt(b, int64(x), 10)
		sep = ','
	}
	b = append(b, indent[:len(indent)-2]...)
	return append(b, ']')
}

// appendDataset opens a query response with the key that sorts first
// in all three shapes.
func appendDataset(b []byte, dataset string) []byte {
	b = append(b, "{\n  \"dataset\": "...)
	return appendString(b, dataset)
}

// appendLevelResponse appends the /level body:
// {dataset, seq, stream, view{level, count{…}, cells{…}}}.
func appendLevelResponse(b []byte, dataset string, seq, stream uint64, v LevelView) ([]byte, error) {
	b = appendDataset(b, dataset)
	b = append(b, ",\n  \"seq\": "...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, ",\n  \"stream\": "...)
	b = strconv.AppendUint(b, stream, 10)
	b = append(b, ",\n  \"view\": {\n    \"level\": "...)
	b = strconv.AppendInt(b, int64(v.Level), 10)
	b = append(b, ",\n    \"count\": "...)
	b, err := appendLevelRelease(b, &v.Count)
	if err != nil {
		return b, err
	}
	b = append(b, ",\n    \"cells\": "...)
	if b, err = appendCellRelease(b, v.Cells); err != nil {
		return b, err
	}
	return append(b, "\n  }\n}\n"...), nil
}

// appendLevelRelease appends a core.LevelRelease as view.count (its
// fields at six spaces), every JSON-tagged field in declaration order.
func appendLevelRelease(b []byte, c *core.LevelRelease) ([]byte, error) {
	if !finite(c.Epsilon, c.Delta, c.Sigma, c.NoisyCount, c.RER) {
		return b, errNonFinite
	}
	b = append(b, "{\n      \"level\": "...)
	b = strconv.AppendInt(b, int64(c.Level), 10)
	b = append(b, ",\n      \"model\": "...)
	b = appendString(b, c.ModelName)
	b = append(b, ",\n      \"calibration\": "...)
	b = appendString(b, c.CalibName)
	if c.MechName != "" {
		b = append(b, ",\n      \"mechanism\": "...)
		b = appendString(b, c.MechName)
	}
	b = append(b, ",\n      \"epsilon\": "...)
	b = appendFloat(b, c.Epsilon)
	b = append(b, ",\n      \"delta\": "...)
	b = appendFloat(b, c.Delta)
	b = append(b, ",\n      \"sensitivity\": "...)
	b = strconv.AppendInt(b, c.Sensitivity, 10)
	b = append(b, ",\n      \"sigma\": "...)
	b = appendFloat(b, c.Sigma)
	if c.TrueCount != 0 {
		b = append(b, ",\n      \"true_count\": "...)
		b = strconv.AppendInt(b, c.TrueCount, 10)
	}
	b = append(b, ",\n      \"noisy_count\": "...)
	b = appendFloat(b, c.NoisyCount)
	if c.RER != 0 {
		b = append(b, ",\n      \"rer\": "...)
		b = appendFloat(b, c.RER)
	}
	return append(b, "\n    }"...), nil
}

// appendCellRelease appends a *core.CellRelease as view.cells (fields
// at six spaces, counts at eight); a nil pointer encodes as null.
func appendCellRelease(b []byte, c *core.CellRelease) ([]byte, error) {
	if c == nil {
		return append(b, "null"...), nil
	}
	if !finite(c.Epsilon, c.Delta, c.Sigma) {
		return b, errNonFinite
	}
	b = append(b, "{\n      \"level\": "...)
	b = strconv.AppendInt(b, int64(c.Level), 10)
	b = append(b, ",\n      \"model\": "...)
	b = appendString(b, c.ModelName)
	b = append(b, ",\n      \"calibration\": "...)
	b = appendString(b, c.CalibName)
	b = append(b, ",\n      \"epsilon\": "...)
	b = appendFloat(b, c.Epsilon)
	b = append(b, ",\n      \"delta\": "...)
	b = appendFloat(b, c.Delta)
	b = append(b, ",\n      \"sensitivity\": "...)
	b = strconv.AppendInt(b, c.Sensitivity, 10)
	b = append(b, ",\n      \"sigma\": "...)
	b = appendFloat(b, c.Sigma)
	b = append(b, ",\n      \"counts\": "...)
	b, err := appendCountArray(b, c.Counts, "\n        ")
	if err != nil {
		return b, err
	}
	b = append(b, ",\n      \"side_groups\": "...)
	b = strconv.AppendInt(b, int64(c.SideGroups), 10)
	if c.MechName != "" {
		b = append(b, ",\n      \"mechanism\": "...)
		b = appendString(b, c.MechName)
	}
	return append(b, "\n    }"...), nil
}

// appendQueryTail closes a marginal or top-k response with the keys
// both shapes end on: seq, side, stream.
func appendQueryTail(b []byte, seq uint64, side string, stream uint64) []byte {
	b = append(b, ",\n  \"seq\": "...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, ",\n  \"side\": "...)
	b = appendString(b, side)
	b = append(b, ",\n  \"stream\": "...)
	b = strconv.AppendUint(b, stream, 10)
	return append(b, "\n}\n"...)
}

// appendMarginalResponse appends the /marginal body:
// {dataset, level, marginals[…], seq, side, stream}.
func appendMarginalResponse(b []byte, dataset string, seq, stream uint64, level int, side string, marginals []float64) ([]byte, error) {
	b = appendDataset(b, dataset)
	b = append(b, ",\n  \"level\": "...)
	b = strconv.AppendInt(b, int64(level), 10)
	b = append(b, ",\n  \"marginals\": "...)
	b, err := appendCountArray(b, marginals, "\n    ")
	if err != nil {
		return b, err
	}
	return appendQueryTail(b, seq, side, stream), nil
}

// appendTopKResponse appends the /topk body:
// {dataset, groups[…], k, level, seq, side, stream}.
func appendTopKResponse(b []byte, dataset string, seq, stream uint64, level int, side string, k int, groups []int) []byte {
	b = appendDataset(b, dataset)
	b = append(b, ",\n  \"groups\": "...)
	b = appendIntArray(b, groups, "\n    ")
	b = append(b, ",\n  \"k\": "...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, ",\n  \"level\": "...)
	b = strconv.AppendInt(b, int64(level), 10)
	return appendQueryTail(b, seq, side, stream)
}

// appendErrorBody appends the uniform error shape {error, code}.
func appendErrorBody(b []byte, msg, code string) []byte {
	b = append(b, "{\n  \"error\": "...)
	b = appendString(b, msg)
	b = append(b, ",\n  \"code\": "...)
	b = appendString(b, code)
	return append(b, "\n}\n"...)
}
