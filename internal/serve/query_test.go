package serve

import (
	"encoding/json"
	"net/http"
	"testing"
)

// queryErrorCase is one refused query: the route it is posted to, its
// body, and the status, code and message it is refused with.
type queryErrorCase struct {
	name, route, body string
	status            int
	code, msg         string
}

// TestHTTPQueryErrors pins every refusal of the three query routes:
// the status, the code and the message, and the order in which the
// checks run when a body breaks more than one rule. The level is
// required everywhere; side is refused on /level; k is refused on
// /level and /marginal and required on /topk; then the session checks
// the level's range, and /topk its k. No refused query spends.
func TestHTTPQueryErrors(t *testing.T) {
	t.Parallel()
	reg, ds := openTestDataset(t, testConfig())
	h := NewHandler(reg)
	handle := openHandle(t, h, ds.Name(), 3)
	const (
		needLevel = `serve: query body requires "level"`
		needK     = `serve: top-k body requires "k"`
		straySide = `serve: "side" is not valid for this endpoint`
		strayK    = `serve: "k" is not valid for this endpoint`
		badSide   = `serve: side must be "left" or "right" (got "up")`
		badLevel  = `hierarchy: level out of range: level 9 not in [0,5]`
		negLevel  = `hierarchy: level out of range: level -1 not in [0,5]`
	)
	cases := []queryErrorCase{
		{"missing level", "level", `{}`, 400, "bad-request", needLevel},
		{"stray side", "level", `{"level":1,"side":"left"}`, 400, "bad-request", straySide},
		{"stray k", "level", `{"level":1,"k":1}`, 400, "bad-request", strayK},
		{"stray side before stray k", "level", `{"level":1,"side":"up","k":1}`, 400, "bad-request", straySide},
		{"stray side before level range", "level", `{"level":9,"side":"left"}`, 400, "bad-request", straySide},
		{"out-of-range level", "level", `{"level":9}`, 400, "bad-request", badLevel},
		{"negative level", "level", `{"level":-1}`, 400, "bad-request", negLevel},

		{"missing level", "marginal", `{"side":"left"}`, 400, "bad-request", needLevel},
		{"missing level before stray k", "marginal", `{"side":"up","k":1}`, 400, "bad-request", needLevel},
		{"stray k", "marginal", `{"level":1,"side":"left","k":2}`, 400, "bad-request", strayK},
		{"stray k before bad side", "marginal", `{"level":1,"side":"up","k":2}`, 400, "bad-request", strayK},
		{"bad side", "marginal", `{"level":1,"side":"up"}`, 400, "bad-request", badSide},
		{"bad side before level range", "marginal", `{"level":9,"side":"up"}`, 400, "bad-request", badSide},
		{"out-of-range level", "marginal", `{"level":9,"side":"right"}`, 400, "bad-request", badLevel},
		{"out-of-range level, default side", "marginal", `{"level":9}`, 400, "bad-request", badLevel},

		{"missing level", "topk", `{"side":"left","k":1}`, 400, "bad-request", needLevel},
		{"missing level before missing k", "topk", `{}`, 400, "bad-request", needLevel},
		{"missing k", "topk", `{"level":1,"side":"left"}`, 400, "bad-request", needK},
		{"bad side before missing k", "topk", `{"level":1,"side":"up"}`, 400, "bad-request", badSide},
		{"bad side", "topk", `{"level":1,"side":"up","k":1}`, 400, "bad-request", badSide},
		{"missing k before level range", "topk", `{"level":9,"side":"left"}`, 400, "bad-request", needK},
		{"out-of-range level", "topk", `{"level":9,"side":"left","k":1}`, 400, "bad-request", badLevel},
		{"out-of-range level before k range", "topk", `{"level":9,"k":0}`, 400, "bad-request", badLevel},
		{"k zero", "topk", `{"level":1,"side":"left","k":0}`, 400, "bad-request", "serve: k=0 outside [1,16]"},
		{"k negative", "topk", `{"level":1,"k":-3}`, 400, "bad-request", "serve: k=-3 outside [1,16]"},
		{"k past the groups", "topk", `{"level":1,"side":"right","k":17}`, 400, "bad-request", "serve: k=17 outside [1,16]"},
		{"k past the groups at the root", "topk", `{"level":5,"k":2}`, 400, "bad-request", "serve: k=2 outside [1,1]"},
	}
	for _, route := range []string{"level", "marginal", "topk"} {
		cases = append(cases,
			queryErrorCase{"malformed body", route, `{"level":`, 400, "bad-request", "serve: parsing body: unexpected EOF"},
			queryErrorCase{"unknown field", route, `{"level":1,"x":1}`, 400, "bad-request", `serve: parsing body: json: unknown field "x"`},
		)
	}
	ops := ds.OpCount()
	for _, c := range cases {
		rr := serveOnce(h, "POST", handle+c.route, c.body)
		var got struct{ Error, Code string }
		if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
			t.Fatalf("/%s %s: body %q: %v", c.route, c.name, rr.Body, err)
		}
		if rr.Code != c.status || got.Code != c.code || got.Error != c.msg {
			t.Errorf("/%s %s (%s): %d %q %q, want %d %q %q", c.route, c.name, c.body, rr.Code, got.Code, got.Error, c.status, c.code, c.msg)
		}
	}
	if got := ds.OpCount(); got != ops {
		t.Fatalf("refused queries spent: %d ledger ops, want %d", got, ops)
	}
	// A refused query takes no seq slot: the handle's next query is its
	// first.
	rr := postQuery(t, h, handle, "marginal", `{"level":1}`)
	var out struct{ Seq uint64 }
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil || out.Seq != 0 {
		t.Fatalf("first answered query after the refusals: seq %d (%v), want 0", out.Seq, err)
	}

	// An unknown handle is refused before its body is read.
	for _, route := range []string{"level", "marginal", "topk"} {
		rr := serveOnce(h, "POST", "/v1/sessions/999/"+route, `{"level":`)
		var got struct{ Error, Code string }
		_ = json.Unmarshal(rr.Body.Bytes(), &got)
		if rr.Code != http.StatusNotFound || got.Code != "unknown-session" || got.Error != "serve: unknown session: 999" {
			t.Errorf("/%s on an unknown handle: %d %q %q", route, rr.Code, got.Code, got.Error)
		}
	}
}
