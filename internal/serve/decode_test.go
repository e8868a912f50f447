package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// canonicalBodies are query bodies queryRequest.scan must answer
// itself, with the request encoding/json decodes them to.
var canonicalBodies = []string{
	`{"level":3}`,
	`{"level":3,"side":"left"}`,
	`{"level":2,"side":"right","k":5}`,
	`{"k":12,"side":"left","level":0}`,
	`{}`,
	`{"side":"right"}`,
	`{"level":-0}`,
	`{"level":-7,"k":-1}`,
	`{"level":999999999,"k":100000000}`,
	" \t\n\r{ \t\n\r\"level\" \t\n\r: \t\n\r3 \t\n\r, \t\n\r\"side\" \t\n\r: \t\n\r\"left\" \t\n\r} \t\n\r",
}

// fallbackBodies are bodies outside the canonical shape: scan refuses
// each, and encoding/json decides it (some it accepts, most it
// rejects).
var fallbackBodies = []string{
	``, ` `, `null`, `[]`, `3`, `"level"`,
	`{"LEVEL":3}`, `{"Level":3}`, `{"level":3,"Level":4}`, `{"lev\u0065l":3}`,
	`{"level":3,"level":4}`, `{"side":"left","side":"right","level":1}`, `{"k":1,"k":2,"level":1}`,
	`{"level":01}`, `{"level":00}`, `{"level":1.0}`, `{"level":1e2}`, `{"level":1E2}`, `{"level":-}`, `{"level":- 1}`,
	`{"level":+1}`, `{"level":1000000000}`, `{"level":9223372036854775807}`, `{"level":9223372036854775808}`,
	`{"level":-9223372036854775809}`, `{"level":null}`, `{"k":null,"level":1}`, `{"level":"3"}`, `{"level":true}`,
	`{"side":"LEFT","level":1}`, `{"side":"le\u0066t","level":1}`, `{"side":"","level":1}`, `{"side":"up","level":1}`,
	`{"side":null,"level":1}`, `{"side":"left\u0000","level":1}`, `{"side":"leftover","level":1}`,
	`{"level":{"x":1}}`, `{"level":[1]}`, `{"level":3,"extra":{}}`, `{"level":3,"x":1}`,
	`{"level":3}{}`, `{"level":3} {}`, `{"level":3}garbage`, `{"level":3},`, `{"level":3}}`,
	`{"level":3,}`, `{,"level":3}`, `{"level":3 "k":1}`, `{"level" 3}`, `{"level"::3}`, `{"level""k":1}`,
	`{"level":3`, `{"level`, `{"level":`, `{`, `}`,
	"\xef\xbb\xbf{\"level\":3}", "{\"level\":3}\xef\xbb\xbf", "{\"l\xffvel\":3}", "{\"level\":3,\"side\":\"l\xe9ft\"}",
	"\v{\"level\":3}", "{\"level\":3}\f", "{\"level\":\u00a03}", "{\"level\":\u20283}", "{\"level\":3\x85}", "{\x00\"level\":3}",
	"{\"level\":3} ",
}

// decodeReference is the query endpoints' decode before the scanner:
// encoding/json alone.
func decodeReference(body []byte) (queryRequest, error) {
	var q queryRequest
	err := q.parse(body)
	return q, err
}

// decodeServed runs a body through decodeQuery as a query endpoint does.
func decodeServed(body []byte) (queryRequest, error) {
	var q queryRequest
	r := httptest.NewRequest("POST", "/v1/sessions/1/marginal", bytes.NewReader(body))
	err := decodeQuery(httptest.NewRecorder(), r, &q)
	return q, err
}

// queryString renders a request's decoded fields for comparison.
func queryString(q queryRequest) string {
	s := fmt.Sprintf("side=%q", q.side)
	if q.hasLevel {
		s += fmt.Sprintf(" level=%d", q.level)
	}
	if q.hasK {
		s += fmt.Sprintf(" k=%d", q.k)
	}
	return s
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkDecode holds the scanner and the served decode of one body to
// encoding/json: scan accepts only what encoding/json accepts, with the
// same request, and decodeQuery gives the same request or error message.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := decodeReference(body)
	var scanned queryRequest
	if scanned.scan(body) {
		if wantErr != nil {
			t.Fatalf("scan accepted %q, which encoding/json refuses: %v", body, wantErr)
		}
		if got := queryString(scanned); got != queryString(want) {
			t.Fatalf("scan(%q) = %s, encoding/json: %s", body, got, queryString(want))
		}
	}
	got, err := decodeServed(body)
	if errString(err) != errString(wantErr) {
		t.Fatalf("decodeQuery(%q): error %q, encoding/json: %q", body, errString(err), errString(wantErr))
	}
	if err == nil && queryString(got) != queryString(want) {
		t.Fatalf("decodeQuery(%q) = %s, encoding/json: %s", body, queryString(got), queryString(want))
	}
}

func FuzzDecodeQueryBody(f *testing.F) {
	for _, b := range canonicalBodies {
		f.Add([]byte(b))
	}
	for _, b := range fallbackBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(checkDecode)
}

// TestScanCoversCanonicalBodies: the scanner answers the canonical
// bodies itself and leaves the others to encoding/json, and both sets
// pass the differential check. Without the first half a scanner that
// refused everything would pass the fuzz target.
func TestScanCoversCanonicalBodies(t *testing.T) {
	for _, b := range canonicalBodies {
		var q queryRequest
		if !q.scan([]byte(b)) {
			t.Errorf("scan refused the canonical body %q", b)
		}
		checkDecode(t, []byte(b))
	}
	for _, b := range fallbackBodies {
		var q queryRequest
		if q.scan([]byte(b)) {
			t.Errorf("scan accepted %q, outside the canonical shape", b)
		}
		checkDecode(t, []byte(b))
	}
}

// TestDecodeBodyLimit: a query body past maxQueryBody is still refused
// as too large (413), canonical prefix or not.
func TestDecodeBodyLimit(t *testing.T) {
	body := `{"level":3` + strings.Repeat(" ", maxQueryBody) + `}`
	_, err := decodeServed([]byte(body))
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("decodeQuery of a %d-byte body: %v, want a MaxBytesError", len(body), err)
	}
}
