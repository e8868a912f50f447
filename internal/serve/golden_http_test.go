// Golden transcript tests live in the external test package because
// they exercise the public repro facade (SaveTSV) against the HTTP
// handler — the facade imports internal/serve, so an internal test
// would cycle.
package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/dp"
	"repro/internal/release"
	"repro/internal/serve"
)

// goldenServeTranscript pins the full HTTP conversation — ingest,
// session, level, marginal, top-k, budget — for the default strategy.
// It was captured before the strategy refactor; the strategy seam must
// never change a default-strategy byte on the wire. Re-pinned when the
// /budget durability panel grew the "backend" stamp ("mem" here): the
// noise and audit bytes were unchanged, only the durability JSON.
// Re-pinned again when /level stopped serving the evaluation-only
// view.count.true_count and view.count.rer: the transcript lost exactly
// those two keys. Re-pinned once more when released cells became
// integers: view.cells.counts and the marginals moved, and nothing else.
const goldenServeTranscript = "aef3996eee4327f281452e59848c718612d84dfdd2e626dd9edcd87cfb39d2db"

func goldenGraph(t *testing.T) *bipartite.Graph {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{
		Name: "test", NumLeft: 300, NumRight: 500, NumEdges: 3000,
		LeftZipf: 1.9, RightZipf: 2.8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestServeTranscriptGoldenPinned(t *testing.T) {
	t.Parallel()
	g := goldenGraph(t)

	reg, err := serve.Open(serve.Config{
		Budget:   dp.Params{Epsilon: 2, Delta: 1e-5},
		PerQuery: dp.Params{Epsilon: 0.05, Delta: 1e-7},
		Rounds:   6,
		Seed:     7,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	h := serve.NewHandler(reg)

	var tsv bytes.Buffer
	if err := repro.SaveTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}

	var transcript bytes.Buffer
	do := func(method, path, body string) string {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if strings.HasPrefix(body, "{") {
			req.Header.Set("Content-Type", "application/json")
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != 200 && rr.Code != 201 {
			t.Fatalf("%s %s: status %d: %s", method, path, rr.Code, rr.Body.String())
		}
		fmt.Fprintf(&transcript, "%s %s\n%s\n", method, path, rr.Body.String())
		return rr.Body.String()
	}

	do("POST", "/v1/datasets/golden", tsv.String())
	sidBody := do("POST", "/v1/datasets/golden/sessions", `{"stream": 7}`)
	var sess struct {
		Session json.Number `json:"session"`
	}
	if err := json.Unmarshal([]byte(sidBody), &sess); err != nil {
		t.Fatal(err)
	}
	sid := sess.Session.String()
	do("POST", "/v1/sessions/"+sid+"/level", `{"level": 2}`)
	do("POST", "/v1/sessions/"+sid+"/marginal", `{"level": 2, "side": "left"}`)
	do("POST", "/v1/sessions/"+sid+"/topk", `{"level": 2, "side": "right", "k": 5}`)
	do("GET", "/v1/datasets/golden/budget", "")

	got := fmt.Sprintf("%x", sha256.Sum256(transcript.Bytes()))
	if got != goldenServeTranscript {
		t.Errorf("serve transcript hash = %s, want %s\ntranscript:\n%s",
			got, goldenServeTranscript, transcript.String())
	}
}

// TestHTTPIngestStrategy drives the ?strategy= ingest path for every
// registered strategy and checks the wire contract: the dataset
// response and /budget name non-default strategies and omit the key
// for the default; unknown names are refused with 400 bad-config.
func TestHTTPIngestStrategy(t *testing.T) {
	t.Parallel()
	g := goldenGraph(t)
	var tsv bytes.Buffer
	if err := repro.SaveTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}

	reg, err := serve.Open(serve.Config{
		Budget:   dp.Params{Epsilon: 4, Delta: 1e-5},
		PerQuery: dp.Params{Epsilon: 0.05, Delta: 1e-7},
		Rounds:   5,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	h := serve.NewHandler(reg)

	do := func(method, path, body string) (int, map[string]any) {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if strings.HasPrefix(body, "{") {
			req.Header.Set("Content-Type", "application/json")
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		var m map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
			t.Fatalf("%s %s: non-JSON response %q", method, path, rr.Body.String())
		}
		return rr.Code, m
	}

	for _, name := range release.Strategies.Names() {
		code, resp := do("POST", "/v1/datasets/ds-"+name+"?strategy="+name, tsv.String())
		if code != 200 && code != 201 {
			t.Fatalf("%s: ingest status %d: %v", name, code, resp)
		}
		wantLabel := name
		if name == release.DefaultStrategyName {
			wantLabel = "" // absence IS the default on the wire
		}
		if got, _ := resp["strategy"].(string); got != wantLabel {
			t.Errorf("%s: ingest response strategy = %q, want %q", name, got, wantLabel)
		}
		code, budget := do("GET", "/v1/datasets/ds-"+name+"/budget", "")
		if code != 200 {
			t.Fatalf("%s: budget status %d: %v", name, code, budget)
		}
		if got, _ := budget["strategy"].(string); got != wantLabel {
			t.Errorf("%s: budget strategy = %q, want %q", name, got, wantLabel)
		}
	}

	// community-gaussian was built in until its Phase-1 privacy claim was
	// shown not to hold; the retired name is refused like any unknown one.
	for _, name := range []string{"no-such-strategy", "community-gaussian"} {
		code, resp := do("POST", "/v1/datasets/bad?strategy="+name, tsv.String())
		if code != 400 {
			t.Errorf("%s ingest: status %d, want 400 (%v)", name, code, resp)
		}
		if got, _ := resp["code"].(string); got != "bad-config" {
			t.Errorf("%s ingest: error code %q, want bad-config", name, got)
		}
	}
}
