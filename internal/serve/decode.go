package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/bipartite"
)

// Request bodies. Every JSON body is read whole, under maxQueryBody,
// into a pooled buffer and parsed by encoding/json with unknown fields
// and trailing data refused. The query endpoints' bodies — a replayed
// answer costs no ε, so they are most of what a serving front end
// parses — have their own typed decode (decodeQuery) with a
// hand-written scanner in front of that path for the canonical shape
// (queryRequest.scan); every other body goes to encoding/json as
// before, so each accept or reject decision and each error message is
// the one encoding/json gives. FuzzDecodeQueryBody holds the two to
// each other.

// decodeBody parses a bounded JSON body into v; an empty body leaves v
// at its zero value. Unknown fields are rejected: a misspelled key must
// fail the request up front, not silently run a defaulted query that
// debits the permanent privacy ledger.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	bp := bodyBuffers.Get().(*[]byte)
	body, err := readBody(w, r, (*bp)[:0])
	if err == nil {
		err = parseBody(body, v)
	}
	// Safe to reuse: parseBody leaves nothing in v pointing into body.
	putBody(bp, body)
	return err
}

// queryRequest is a decoded query body: each field, and whether the
// body named level and k — a query must name its parameters explicitly
// before it may spend budget, and each endpoint rejects fields it does
// not consume (a body shaped for one query kind must not silently run
// as another). It holds no pointer, so a scanned body allocates
// nothing.
type queryRequest struct {
	level, k       int
	hasLevel, hasK bool
	side           string
}

// decodeQuery parses a bounded query body into q, which must be zero,
// as decodeBody would: the scanner answers the canonical shape, and
// encoding/json (parse) every other body.
func decodeQuery(w http.ResponseWriter, r *http.Request, q *queryRequest) error {
	bp := bodyBuffers.Get().(*[]byte)
	body, err := readBody(w, r, (*bp)[:0])
	if err == nil && !q.scan(body) {
		err = q.parse(body)
	}
	putBody(bp, body)
	return err
}

// parse decodes body into q with encoding/json. Level and K are
// pointers so an omitted field is told apart from a zero one.
func (q *queryRequest) parse(body []byte) error {
	var v struct {
		Level *int   `json:"level"`
		Side  string `json:"side"`
		K     *int   `json:"k"`
	}
	if err := parseBody(body, &v); err != nil {
		return err
	}
	*q = queryRequest{side: v.Side}
	if v.Level != nil {
		q.level, q.hasLevel = *v.Level, true
	}
	if v.K != nil {
		q.k, q.hasK = *v.K, true
	}
	return nil
}

// query checks the request against kind's route and returns the query
// it names. The checks run in one order for every route: the level is
// required; side is refused on /level; k is refused on /level and
// /marginal; a marginal's or top-k's side must be "left" (the default)
// or "right"; k is required on /topk. Silently dropping a field could
// spend budget on a query the client did not intend.
func (q queryRequest) query(kind int) (query, error) {
	if !q.hasLevel {
		return query{}, errors.New("serve: query body requires \"level\"")
	}
	if kind == queryKindView && q.side != "" {
		return query{}, errors.New("serve: \"side\" is not valid for this endpoint")
	}
	if kind != queryKindTopK && q.hasK {
		return query{}, errors.New("serve: \"k\" is not valid for this endpoint")
	}
	out := query{kind: kind, level: q.level}
	if kind == queryKindView {
		return out, nil
	}
	switch q.side {
	case "left", "":
		out.side = bipartite.Left
	case "right":
		out.side = bipartite.Right
	default:
		return query{}, fmt.Errorf("serve: side must be \"left\" or \"right\" (got %q)", q.side)
	}
	if kind == queryKindTopK {
		if !q.hasK {
			return query{}, errors.New("serve: top-k body requires \"k\"")
		}
		out.k = q.k
	}
	return out, nil
}

// readBody appends the request body to b, refusing more than
// maxQueryBody bytes (a *http.MaxBytesError, which writeErr maps to
// 413). It reads as io.ReadAll does, into the caller's buffer.
func readBody(w http.ResponseWriter, r *http.Request, b []byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxQueryBody)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, fmt.Errorf("serve: reading body: %w", err)
		}
	}
}

// parseBody decodes a whole body into v with encoding/json.
func parseBody(body []byte, v any) error {
	if len(body) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: parsing body: %w", err)
	}
	// Reject trailing content after the value: an ambiguous body (two
	// concatenated requests, appended garbage) must not run as whatever
	// its first object happens to say.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("serve: parsing body: trailing data after JSON value")
	}
	return nil
}

// scan decodes body into q, which must be zero, when the body has the
// canonical query shape: one flat object whose keys are exactly
// "level", "side" and "k", each at most once; level and k integers of
// one to nine digits with no fraction, exponent or leading zero; side
// the plain string "left" or "right"; JSON whitespace between tokens.
// encoding/json accepts every such body and decodes it to the same
// request (nine digits fit any int). Anything else — escapes, other
// spellings of a key (encoding/json folds case), a repeated key, null,
// other numbers, trailing data — makes scan report false and leave q
// as it was, for parseBody to decide.
func (q *queryRequest) scan(body []byte) bool {
	s := queryScanner{b: body}
	var (
		level, k       int
		hasLevel, hasK bool
		side           string
	)
	if !s.token('{') {
		return false
	}
	if !s.token('}') {
		for {
			key, ok := s.key()
			if !ok {
				return false
			}
			switch {
			case string(key) == "level" && !hasLevel:
				level, ok = s.int()
				hasLevel = true
			case string(key) == "k" && !hasK:
				k, ok = s.int()
				hasK = true
			case string(key) == "side" && side == "":
				side, ok = s.side()
			default:
				return false
			}
			if !ok {
				return false
			}
			if s.token('}') {
				break
			}
			if !s.token(',') {
				return false
			}
		}
	}
	if s.space(); s.i != len(s.b) {
		return false
	}
	*q = queryRequest{level: level, k: k, hasLevel: hasLevel, hasK: hasK, side: side}
	return true
}

// queryScanner is scan's cursor. Each method skips the JSON whitespace
// before its token.
type queryScanner struct {
	b []byte
	i int
}

func (s *queryScanner) space() {
	for s.i < len(s.b) && isSpace(s.b[s.i]) {
		s.i++
	}
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// token consumes c if it comes next.
func (s *queryScanner) token(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key reads a quoted key and its colon, and returns the bytes between
// the quotes; a key with an escape never equals a canonical one.
func (s *queryScanner) key() ([]byte, bool) {
	if !s.token('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return nil, false
	}
	key := s.b[s.i : s.i+n]
	s.i += n + 1
	return key, s.token(':')
}

// int reads an integer of one to nine digits without a leading zero.
func (s *queryScanner) int() (int, bool) {
	s.space()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start, v := s.i, 0
	for s.i < len(s.b) && s.i-start < 10 && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		v = 10*v + int(s.b[s.i]-'0')
		s.i++
	}
	if n := s.i - start; n == 0 || n > 9 || n > 1 && s.b[start] == '0' {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// side reads the string "left" or "right".
func (s *queryScanner) side() (string, bool) {
	s.space()
	for _, lit := range [...]string{`"left"`, `"right"`} {
		if bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
			s.i += len(lit)
			return lit[1 : len(lit)-1], true
		}
	}
	return "", false
}
