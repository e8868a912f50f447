package serve

import (
	"bytes"
	"io"
	"net/http/httptest"
	"testing"
)

// BenchmarkDecodeQueryBody decodes a /marginal body as the query
// endpoints do: bounded read, then parse into a fresh queryRequest.
func BenchmarkDecodeQueryBody(b *testing.B) {
	body := []byte(`{"level":3,"side":"left"}`)
	rd := bytes.NewReader(body)
	r := httptest.NewRequest("POST", "/v1/sessions/1/marginal", nil)
	r.Body = io.NopCloser(rd)
	w := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		var req queryRequest
		if err := decodeQuery(w, r, &req); err != nil || !req.hasLevel || req.level != 3 || req.side != "left" {
			b.Fatalf("decodeQuery = %+v, %v", req, err)
		}
	}
}
