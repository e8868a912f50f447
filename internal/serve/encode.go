package serve

import (
	"errors"
	"math"
	"math/bits"
	"slices"
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
// go out as integers written digit pair by digit pair (putInt): a
// 4 096-cell view is ≈ 60 KB.
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
	start := len(b)
	b, sep := openArray(b, len(fs), indent)
	n := start
	for _, f := range fs {
		i := int64(f)
		if float64(i) != f || i >= 1<<53 || i <= -1<<53 || math.Float64bits(f) == 1<<63 {
			return b[:start], errNotCount
		}
		*(*[16]byte)(b[n:]) = sep.words
		n = putInt(b, n+sep.len, i)
	}
	return closeArray(b, start, n, indent), nil
}

// appendIntArray is appendCountArray for the top-k group ids.
func appendIntArray(b []byte, xs []int, indent string) []byte {
	if len(xs) == 0 {
		if xs == nil {
			return append(b, "null"...)
		}
		return append(b, "[]"...)
	}
	start := len(b)
	b, sep := openArray(b, len(xs), indent)
	n := start
	for _, x := range xs {
		*(*[16]byte)(b[n:]) = sep.words
		n = putInt(b, n+sep.len, int64(x))
	}
	return closeArray(b, start, n, indent)
}

// The array encoders write their elements into room reserved once per
// array instead of appending per element: each element's separator and
// indent go out as one 16-byte store (the next element's bytes
// overwrite what runs past them) and its digits straight from
// digitPairs, with no strconv scratch buffer to copy out of.

// maxIntBytes is the longest int64 in decimal: a sign and 19 digits.
const maxIntBytes = 20

// arraySep is ",", then an element's indent, padded to one store.
type arraySep struct {
	words [16]byte
	len   int
}

// openArray reserves room for n elements, their separators, the last
// separator store's overrun and the close, and returns b extended to
// its capacity; the caller writes from the old length on. indent is at
// most 15 bytes.
func openArray(b []byte, n int, indent string) ([]byte, arraySep) {
	sep := arraySep{len: 1 + len(indent)}
	sep.words[0] = ','
	copy(sep.words[1:], indent)
	b = slices.Grow(b, n*(sep.len+maxIntBytes)+len(sep.words)+len(indent))
	return b[:cap(b)], sep
}

// closeArray turns the first separator into the opening bracket and
// closes the array after the element that ends at n.
func closeArray(b []byte, start, n int, indent string) []byte {
	b[start] = '['
	b = b[:n]
	b = append(b, indent[:len(indent)-2]...)
	return append(b, ']')
}

// digitPairs holds "00" through "99".
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10 holds 10^0 through 10^19.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// putInt writes i in decimal at b[n:], as strconv.AppendInt formats it,
// and returns the index after its last digit.
func putInt(b []byte, n int, i int64) int {
	u := uint64(i)
	if i < 0 {
		b[n] = '-'
		n++
		u = -u
	}
	// bits.Len64 · log10(2) is the digit count or one less. u|1 sits on
	// u's side of every power of ten above 1 (they are even) and gives
	// 0 its one digit.
	t := bits.Len64(u|1) * 1233 >> 12
	if u|1 >= pow10[t] {
		t++
	}
	n += t
	p := n
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		p -= 2
		b[p], b[p+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[p-2], b[p-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[p-1] = byte('0' + u)
	}
	return n
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
