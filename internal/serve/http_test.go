package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/dp"
)

// newTestServer spins an HTTP front end over a fresh registry.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Registry) {
	t.Helper()
	return newTestServerWith(t, cfg, HandlerOptions{})
}

func newTestServerWith(t *testing.T, cfg Config, opts HandlerOptions) (*httptest.Server, *Registry) {
	t.Helper()
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandlerWith(reg, opts))
	t.Cleanup(func() { srv.Close(); reg.Close() })
	return srv, reg
}

// testTSV renders the shared test dataset as a TSV upload body.
func testTSV(t *testing.T) []byte {
	t.Helper()
	cfg := datagen.Config{
		Name: "serve-test", NumLeft: 120, NumRight: 150, NumEdges: 1800,
		LeftZipf: 1.9, RightZipf: 2.6, Seed: 5,
	}
	g, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bipartite.SaveTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// do issues one request and decodes the JSON response.
func do(t *testing.T, method, url string, body []byte, contentType string, wantStatus int) map[string]any {
	t.Helper()
	raw := doRaw(t, method, url, body, contentType, wantStatus)
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: bad JSON: %v\n%s", method, url, err, raw)
	}
	return out
}

func doRaw(t *testing.T, method, url string, body []byte, contentType string, wantStatus int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d\n%s", method, url, resp.StatusCode, wantStatus, raw)
	}
	return raw
}

func TestHTTPServeEndToEnd(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, testConfig())
	base := srv.URL

	// Health before any data.
	health := do(t, "GET", base+"/healthz", nil, "", http.StatusOK)
	if health["ok"] != true {
		t.Fatalf("healthz = %v", health)
	}

	// Ingest via upload body (TSV sniffed).
	ing := do(t, "POST", base+"/v1/datasets/dblp", testTSV(t), "text/tab-separated-values", http.StatusCreated)
	if ing["name"] != "dblp" {
		t.Fatalf("ingest response = %v", ing)
	}
	stats := ing["stats"].(map[string]any)
	if stats["num_edges"].(float64) != 1800 {
		t.Fatalf("ingested stats = %v", stats)
	}

	// Duplicate name → 409.
	errBody := do(t, "POST", base+"/v1/datasets/dblp", testTSV(t), "", http.StatusConflict)
	if errBody["code"] != "dataset-exists" {
		t.Fatalf("duplicate ingest = %v", errBody)
	}

	// List + info.
	list := do(t, "GET", base+"/v1/datasets", nil, "", http.StatusOK)
	if n := len(list["datasets"].([]any)); n != 1 {
		t.Fatalf("listed %d datasets", n)
	}
	do(t, "GET", base+"/v1/datasets/dblp", nil, "", http.StatusOK)
	if nf := do(t, "GET", base+"/v1/datasets/nope", nil, "", http.StatusNotFound); nf["code"] != "unknown-dataset" {
		t.Fatalf("unknown dataset = %v", nf)
	}

	// Open a pinned session and serve a level view.
	sess := do(t, "POST", base+"/v1/datasets/dblp/sessions", []byte(`{"stream": 7}`), "application/json", http.StatusCreated)
	sid := fmt.Sprintf("%.0f", sess["session"].(float64))
	if sess["stream"].(float64) != 7 {
		t.Fatalf("session = %v", sess)
	}

	levelResp := do(t, "POST", base+"/v1/sessions/"+sid+"/level", []byte(`{"level": 2}`), "application/json", http.StatusOK)
	view := levelResp["view"].(map[string]any)
	cells := view["cells"].(map[string]any)
	if len(cells["counts"].([]any)) == 0 {
		t.Fatal("level view histogram is empty")
	}
	if levelResp["seq"].(float64) != 0 {
		t.Fatalf("first query seq = %v", levelResp["seq"])
	}

	// The ledger recorded the debit.
	budget := do(t, "GET", base+"/v1/datasets/dblp/budget", nil, "", http.StatusOK)
	spent := budget["spent"].(map[string]any)
	if spent["epsilon"].(float64) <= 0 {
		t.Fatalf("budget endpoint shows no spend: %v", budget)
	}
	if !strings.Contains(budget["audit"].(string), "s7/q0/view/level2") {
		t.Fatalf("audit report missing the query op:\n%s", budget["audit"])
	}

	// Marginal and top-k.
	marg := do(t, "POST", base+"/v1/sessions/"+sid+"/marginal", []byte(`{"level": 1, "side": "right"}`), "application/json", http.StatusOK)
	if len(marg["marginals"].([]any)) == 0 {
		t.Fatal("empty marginals")
	}
	topk := do(t, "POST", base+"/v1/sessions/"+sid+"/topk", []byte(`{"level": 2, "side": "left", "k": 3}`), "application/json", http.StatusOK)
	if len(topk["groups"].([]any)) != 3 {
		t.Fatalf("topk = %v", topk)
	}

	// Bad requests.
	if bad := do(t, "POST", base+"/v1/sessions/"+sid+"/level", []byte(`{"level": 99}`), "application/json", http.StatusBadRequest); bad["code"] != "bad-request" {
		t.Fatalf("bad level = %v", bad)
	}
	do(t, "POST", base+"/v1/sessions/"+sid+"/marginal", []byte(`{"level": 1, "side": "up"}`), "application/json", http.StatusBadRequest)
	do(t, "POST", base+"/v1/sessions/99999/level", []byte(`{"level": 1}`), "application/json", http.StatusNotFound)

	// A misspelled or missing level must be rejected BEFORE any budget
	// is spent — the ledger is permanent, so a typo must not silently
	// run a defaulted level-0 query.
	spentBefore := do(t, "GET", base+"/v1/datasets/dblp/budget", nil, "", http.StatusOK)["spent"].(map[string]any)["epsilon"].(float64)
	do(t, "POST", base+"/v1/sessions/"+sid+"/level", []byte(`{"lvl": 3}`), "application/json", http.StatusBadRequest)
	do(t, "POST", base+"/v1/sessions/"+sid+"/level", nil, "", http.StatusBadRequest)
	do(t, "POST", base+"/v1/sessions/"+sid+"/marginal", []byte(`{"side": "left"}`), "application/json", http.StatusBadRequest)
	do(t, "POST", base+"/v1/sessions/"+sid+"/level", []byte(`{"level": 1}{"level": 3}`), "application/json", http.StatusBadRequest)
	do(t, "POST", base+"/v1/sessions/"+sid+"/level", []byte(`{"level": 1} trailing`), "application/json", http.StatusBadRequest)
	// Fields an endpoint does not consume are rejected, not ignored — a
	// body shaped for one query kind must not run as another.
	do(t, "POST", base+"/v1/sessions/"+sid+"/level", []byte(`{"level": 1, "side": "left", "k": 5}`), "application/json", http.StatusBadRequest)
	do(t, "POST", base+"/v1/sessions/"+sid+"/marginal", []byte(`{"level": 1, "side": "left", "k": 5}`), "application/json", http.StatusBadRequest)
	do(t, "POST", base+"/v1/sessions/"+sid+"/topk", []byte(`{"level": 1, "side": "left"}`), "application/json", http.StatusBadRequest)
	spentAfter := do(t, "GET", base+"/v1/datasets/dblp/budget", nil, "", http.StatusOK)["spent"].(map[string]any)["epsilon"].(float64)
	if spentAfter != spentBefore {
		t.Fatalf("rejected queries spent budget: %v -> %v", spentBefore, spentAfter)
	}

	// Close the session handle.
	do(t, "DELETE", base+"/v1/sessions/"+sid, nil, "", http.StatusOK)
	do(t, "POST", base+"/v1/sessions/"+sid+"/level", []byte(`{"level": 1}`), "application/json", http.StatusNotFound)
}

// TestHTTPPinnedStreamReplaysByteIdentical is the serving acceptance
// check: with a pinned seed and stream id, re-running the same query
// sequence — on a fresh handle, even a fresh server process — returns
// byte-identical response bodies.
func TestHTTPPinnedStreamReplaysByteIdentical(t *testing.T) {
	t.Parallel()
	transcript := func() []byte {
		srv, _ := newTestServer(t, testConfig())
		base := srv.URL
		do(t, "POST", base+"/v1/datasets/dblp", testTSV(t), "", http.StatusCreated)
		sess := do(t, "POST", base+"/v1/datasets/dblp/sessions", []byte(`{"stream": 42}`), "application/json", http.StatusCreated)
		sid := fmt.Sprintf("%.0f", sess["session"].(float64))
		var blob []byte
		blob = append(blob, doRaw(t, "POST", base+"/v1/sessions/"+sid+"/level", []byte(`{"level": 2}`), "application/json", http.StatusOK)...)
		blob = append(blob, doRaw(t, "POST", base+"/v1/sessions/"+sid+"/marginal", []byte(`{"level": 1, "side": "left"}`), "application/json", http.StatusOK)...)
		blob = append(blob, doRaw(t, "POST", base+"/v1/sessions/"+sid+"/topk", []byte(`{"level": 2, "side": "right", "k": 2}`), "application/json", http.StatusOK)...)
		return blob
	}
	a, b := transcript(), transcript()
	if !bytes.Equal(a, b) {
		t.Fatal("pinned stream replay produced different response bytes")
	}
}

func TestHTTPBudgetExhaustionReturns429(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	// Room for exactly two marginal queries.
	cfg.Budget.Epsilon = 0.04
	cfg.Budget.Delta = 4e-6
	srv, _ := newTestServer(t, cfg)
	base := srv.URL
	do(t, "POST", base+"/v1/datasets/dblp", testTSV(t), "", http.StatusCreated)
	sess := do(t, "POST", base+"/v1/datasets/dblp/sessions", nil, "", http.StatusCreated)
	sid := fmt.Sprintf("%.0f", sess["session"].(float64))

	body := []byte(`{"level": 1, "side": "left"}`)
	do(t, "POST", base+"/v1/sessions/"+sid+"/marginal", body, "application/json", http.StatusOK)
	do(t, "POST", base+"/v1/sessions/"+sid+"/marginal", body, "application/json", http.StatusOK)
	out := do(t, "POST", base+"/v1/sessions/"+sid+"/marginal", body, "application/json", http.StatusTooManyRequests)
	if out["code"] != "budget-exhausted" {
		t.Fatalf("exhaustion response = %v", out)
	}
}

func TestHTTPIngestFromServerPath(t *testing.T) {
	t.Parallel()
	srv, reg := newTestServerWith(t, testConfig(), HandlerOptions{AllowPathIngest: true})
	base := srv.URL

	path := filepath.Join(t.TempDir(), "edges.tsv")
	if err := os.WriteFile(path, testTSV(t), 0o644); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]string{"path": path})
	if err != nil {
		t.Fatal(err)
	}
	do(t, "POST", base+"/v1/datasets/frompath", body, "application/json", http.StatusCreated)
	ds, err := reg.Dataset("frompath")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Stats().NumEdges != 1800 {
		t.Fatalf("path ingest edges = %d", ds.Stats().NumEdges)
	}

	do(t, "POST", base+"/v1/datasets/badpath", []byte(`{"path": "/nope/missing.tsv"}`), "application/json", http.StatusBadRequest)
	do(t, "POST", base+"/v1/datasets/nopath", []byte(`{}`), "application/json", http.StatusBadRequest)
}

// TestHTTPPathIngestDisabledByDefault: without the opt-in, JSON path
// ingest is refused before any file is opened — the default handler
// must not be a server-side file-read oracle. The check matches the
// media type, not the raw header, so a charset parameter cannot smuggle
// the JSON body into the upload-spool branch.
func TestHTTPPathIngestDisabledByDefault(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, testConfig())
	for _, ct := range []string{"application/json", "application/json; charset=utf-8"} {
		out := do(t, "POST", srv.URL+"/v1/datasets/x", []byte(`{"path": "/etc/hostname"}`), ct, http.StatusForbidden)
		if out["code"] != "path-ingest-disabled" {
			t.Fatalf("path ingest (Content-Type %q) response = %v", ct, out)
		}
	}
}

// TestHTTPIngestUploadBounded: an upload larger than MaxUploadBytes is
// refused with 413 instead of being spooled to the server's temp disk,
// and the refused name stays available for a well-sized retry.
func TestHTTPIngestUploadBounded(t *testing.T) {
	t.Parallel()
	tsv := testTSV(t)
	srv, _ := newTestServerWith(t, testConfig(), HandlerOptions{MaxUploadBytes: int64(len(tsv))})
	out := do(t, "POST", srv.URL+"/v1/datasets/big", append(tsv, '\n'), "text/tab-separated-values", http.StatusRequestEntityTooLarge)
	if out["code"] != "body-too-large" {
		t.Fatalf("oversized upload response = %v", out)
	}
	do(t, "POST", srv.URL+"/v1/datasets/big", tsv, "text/tab-separated-values", http.StatusCreated)
}

// unreadBody is an upload body that fails the test when the server
// reads it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("ingest read the upload body of a request it could refuse without it")
	return 0, io.EOF
}

// TestHTTPIngestRefusesBeforeSpooling: a raw upload to a taken name, to a
// name whose build is still running, or with an unknown ?strategy= is
// answered without reading (and so without spooling up to MaxUploadBytes
// of) its body, with the status, code and message AddDatasetWith gives
// once the edges are in hand; the refusal reserves nothing.
func TestHTTPIngestRefusesBeforeSpooling(t *testing.T) {
	t.Parallel()
	reg, err := Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	h := NewHandler(reg)
	tsv := testTSV(t)
	post := func(path string, body io.Reader) (int, map[string]any) {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", path, body))
		var out map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
			t.Fatalf("POST %s: bad JSON: %v\n%s", path, err, rr.Body.Bytes())
		}
		return rr.Code, out
	}
	if code, out := post("/v1/datasets/taken", bytes.NewReader(tsv)); code != http.StatusCreated {
		t.Fatalf("first ingest: %d %v", code, out)
	}
	reg.mu.Lock()
	reg.datasets["building"] = nil // a name reserved by an ingest in flight
	reg.mu.Unlock()

	src := func() bipartite.EdgeSource {
		src, err := bipartite.NewTSVEdgeSource(bytes.NewReader(tsv))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, tc := range []struct {
		name, query, code string
		status            int
	}{
		{"taken", "", "dataset-exists", http.StatusConflict},
		{"building", "", "dataset-exists", http.StatusConflict},
		{"fresh", "?strategy=no-such-strategy", "bad-config", http.StatusBadRequest},
	} {
		status, out := post("/v1/datasets/"+tc.name+tc.query, unreadBody{t})
		if status != tc.status || out["code"] != tc.code {
			t.Errorf("%s%s: got %d %v, want %d %s", tc.name, tc.query, status, out, tc.status, tc.code)
		}
		_, want := reg.AddDatasetWith(tc.name, src(), DatasetOptions{Strategy: strings.TrimPrefix(tc.query, "?strategy=")})
		if want == nil || out["error"] != want.Error() {
			t.Errorf("%s%s: message %q, AddDatasetWith says %v", tc.name, tc.query, out["error"], want)
		}
	}
	if code, out := post("/v1/datasets/fresh", bytes.NewReader(tsv)); code != http.StatusCreated {
		t.Fatalf("ingest after a refusal under the same name: %d %v", code, out)
	}
}

// TestHTTPSessionHandleCap: the handle map is bounded — opening past
// MaxSessions yields 429 until a handle is DELETEd.
func TestHTTPSessionHandleCap(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServerWith(t, testConfig(), HandlerOptions{MaxSessions: 2})
	base := srv.URL
	do(t, "POST", base+"/v1/datasets/dblp", testTSV(t), "", http.StatusCreated)

	first := do(t, "POST", base+"/v1/datasets/dblp/sessions", nil, "", http.StatusCreated)
	do(t, "POST", base+"/v1/datasets/dblp/sessions", nil, "", http.StatusCreated)
	out := do(t, "POST", base+"/v1/datasets/dblp/sessions", nil, "", http.StatusTooManyRequests)
	if out["code"] != "too-many-sessions" {
		t.Fatalf("over-cap session response = %v", out)
	}
	sid := fmt.Sprintf("%.0f", first["session"].(float64))
	do(t, "DELETE", base+"/v1/sessions/"+sid, nil, "", http.StatusOK)
	do(t, "POST", base+"/v1/datasets/dblp/sessions", nil, "", http.StatusCreated)
}

// TestHTTPSessionStreamInterop: auto-assigned stream ids stay small
// (exactly representable as JSON doubles, starting from 0) and the
// response's pinned flag distinguishes the two disjoint id spaces.
func TestHTTPSessionStreamInterop(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, testConfig())
	base := srv.URL
	do(t, "POST", base+"/v1/datasets/dblp", testTSV(t), "", http.StatusCreated)

	auto := do(t, "POST", base+"/v1/datasets/dblp/sessions", nil, "", http.StatusCreated)
	if auto["stream"].(float64) != 0 || auto["pinned"] != false {
		t.Fatalf("auto session = %v", auto)
	}
	pin := do(t, "POST", base+"/v1/datasets/dblp/sessions", []byte(`{"stream": 0}`), "application/json", http.StatusCreated)
	if pin["stream"].(float64) != 0 || pin["pinned"] != true {
		t.Fatalf("pinned session = %v", pin)
	}
}

// TestOpenEdgeSourceFile sniffs both supported formats.
func TestOpenEdgeSourceFile(t *testing.T) {
	t.Parallel()
	g, err := datagen.Generate(datagen.Config{
		Name: "sniff", NumLeft: 30, NumRight: 30, NumEdges: 200,
		LeftZipf: 2.0, RightZipf: 2.0, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	var tsv, bin bytes.Buffer
	if err := bipartite.SaveTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	if err := bipartite.EncodeBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{"g.tsv": tsv.Bytes(), "g.bpg": bin.Bytes()} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		src, err := OpenEdgeSourceFile(f)
		if err != nil {
			f.Close()
			t.Fatalf("%s: %v", name, err)
		}
		var edges int64
		buf := make([]bipartite.Edge, 256)
		if err := bipartite.ForEachChunk(src, buf, func(chunk []bipartite.Edge) error {
			edges += int64(len(chunk))
			return nil
		}); err != nil {
			f.Close()
			t.Fatalf("%s: %v", name, err)
		}
		f.Close()
		if edges != g.NumEdges() {
			t.Fatalf("%s: streamed %d edges, want %d", name, edges, g.NumEdges())
		}
	}
}

// TestHTTPCachedReplaySkipsDebit: two handles pinned to one stream issue
// the same query sequence; the second handle's responses are
// byte-identical and spend nothing (the response cache covers them), and
// the budget endpoint reports the hit. With caching disabled through
// Config.MaxCacheEntries, the same replay debits twice.
func TestHTTPCachedReplaySkipsDebit(t *testing.T) {
	t.Parallel()
	run := func(cfg Config) (first, replay []byte, ops float64, stats map[string]any) {
		srv, _ := newTestServer(t, cfg)
		base := srv.URL
		do(t, "POST", base+"/v1/datasets/dblp", testTSV(t), "", http.StatusCreated)
		open := func() string {
			s := do(t, "POST", base+"/v1/datasets/dblp/sessions", []byte(`{"stream": 6}`), "application/json", http.StatusCreated)
			return fmt.Sprintf("%.0f", s["session"].(float64))
		}
		q := []byte(`{"level": 2, "side": "left"}`)
		sid1 := open()
		first = doRaw(t, "POST", base+"/v1/sessions/"+sid1+"/marginal", q, "application/json", http.StatusOK)
		sid2 := open()
		replay = doRaw(t, "POST", base+"/v1/sessions/"+sid2+"/marginal", q, "application/json", http.StatusOK)
		budget := do(t, "GET", base+"/v1/datasets/dblp/budget", nil, "", http.StatusOK)
		return first, replay, budget["ops"].(float64), budget["cache"].(map[string]any)
	}

	first, replay, ops, stats := run(testConfig())
	if !bytes.Equal(first, replay) {
		t.Fatal("cached HTTP replay is not byte-identical")
	}
	if ops != 1 {
		t.Fatalf("cached replay debited the ledger: %v ops, want 1", ops)
	}
	if stats["hits"].(float64) != 1 || stats["misses"].(float64) != 1 {
		t.Fatalf("budget cache stats = %v, want 1 hit / 1 miss", stats)
	}

	uncached := testConfig()
	uncached.MaxCacheEntries = -1
	first, replay, ops, stats = run(uncached)
	if !bytes.Equal(first, replay) {
		t.Fatal("uncached replay must still be byte-identical (pinned stream contract)")
	}
	if ops != 2 {
		t.Fatalf("with caching disabled, replay should debit again: %v ops, want 2", ops)
	}
	if stats["hits"].(float64) != 0 || stats["misses"].(float64) != 0 {
		t.Fatalf("disabled cache recorded traffic: %v", stats)
	}
}

// replayWriter is a ResponseWriter reused across requests: it keeps
// the status and drops the body.
type replayWriter struct {
	header http.Header
	status int
}

func (w *replayWriter) Header() http.Header         { return w.header }
func (w *replayWriter) WriteHeader(status int)      { w.status = status }
func (w *replayWriter) Write(p []byte) (int, error) { return len(p), nil }

// maxCacheHitAllocs is the measured allocation count of one /marginal
// cache hit through the handler (TestHTTPMarginalCacheHitAllocs), each
// the entry's first HTTP hit: net/http's route match, and the encoded
// response the hit keeps — the struct, the body and its formatted
// Content-Length. With encoding/json decoding the body it was 16.
const maxCacheHitAllocs = 4

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestHTTPMarginalCacheHitAllocs holds the replay path's allocations
// to maxCacheHitAllocs: a /marginal cache hit served by Handler into a
// reused ResponseWriter, from a reused request.
func TestHTTPMarginalCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through sync.Pool vary under -race")
	}
	reg, err := Open(Config{
		Budget:   dp.Params{Epsilon: 1e12, Delta: 0.5},
		PerQuery: dp.Params{Epsilon: 1e-3, Delta: 1e-12},
		Rounds:   6,
		Seed:     71,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ds, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(reg)
	call := func(path string, body []byte) []byte {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if rr.Code/100 != 2 {
			t.Fatalf("POST %s: %d %s", path, rr.Code, rr.Body)
		}
		return rr.Body.Bytes()
	}
	// Two handles on one pinned stream: the first pays for runs+1
	// answers, the second replays them from the cache.
	open := func() string {
		var out struct{ Session uint64 }
		if err := json.Unmarshal(call("/v1/datasets/tiny/sessions", []byte(`{"stream":7}`)), &out); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(out.Session)
	}
	const runs = 100
	query := []byte(`{"level":3,"side":"left"}`)
	first := open()
	for i := 0; i <= runs; i++ {
		call("/v1/sessions/"+first+"/marginal", query)
	}
	body := bytes.NewReader(nil)
	req := httptest.NewRequest("POST", "/v1/sessions/"+open()+"/marginal", nil)
	req.Body = io.NopCloser(body)
	w := &replayWriter{header: http.Header{}}
	hits := ds.CacheStats().Hits
	allocs := testing.AllocsPerRun(runs, func() {
		body.Reset(query)
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("replayed /marginal: status %d", w.status)
		}
	})
	if got := ds.CacheStats().Hits - hits; got != runs+1 {
		t.Fatalf("%d of %d replays were cache hits", got, runs+1)
	}
	t.Logf("/marginal cache hit: %.1f allocs/op", allocs)
	if allocs > maxCacheHitAllocs {
		t.Errorf("/marginal cache hit through the handler: %.1f allocs/op, ceiling %d", allocs, maxCacheHitAllocs)
	}
}

// TestHTTPLevelViewOmitsEvaluationFields: a tier's view is the
// publishable form — no /level body carries the exact count or the
// error rate computed from it, on the cold path, on the cache-hit
// replay, on an uncached auto session, or under a pure-ε strategy.
func TestHTTPLevelViewOmitsEvaluationFields(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, testConfig())
	base := srv.URL
	do(t, "POST", base+"/v1/datasets/dblp", testTSV(t), "", http.StatusCreated)
	do(t, "POST", base+"/v1/datasets/lap?strategy=quadtree-laplace", testTSV(t), "", http.StatusCreated)
	open := func(dataset, body string) string {
		s := do(t, "POST", base+"/v1/datasets/"+dataset+"/sessions", []byte(body), "application/json", http.StatusCreated)
		return fmt.Sprintf("%.0f", s["session"].(float64))
	}
	level := func(sid string) []byte {
		return doRaw(t, "POST", base+"/v1/sessions/"+sid+"/level", []byte(`{"level": 2}`), "application/json", http.StatusOK)
	}
	cold := level(open("dblp", `{"stream": 9}`))
	hit := level(open("dblp", `{"stream": 9}`))
	if !bytes.Equal(cold, hit) {
		t.Fatal("cached level view is not byte-identical to the cold one")
	}
	budget := do(t, "GET", base+"/v1/datasets/dblp/budget", nil, "", http.StatusOK)
	if hits := budget["cache"].(map[string]any)["hits"].(float64); hits != 1 {
		t.Fatalf("replay was not a cache hit: %v hits", hits)
	}
	bodies := map[string][]byte{
		"cold":    cold,
		"hit":     hit,
		"auto":    level(open("dblp", `{}`)),
		"laplace": level(open("lap", `{"stream": 9}`)),
	}
	for name, body := range bodies {
		if !bytes.Contains(body, []byte(`"noisy_count"`)) {
			t.Errorf("%s: /level body lost the released count: %s", name, body)
		}
		for _, key := range []string{`"true_count"`, `"rer"`} {
			if bytes.Contains(body, []byte(key)) {
				t.Errorf("%s: /level body carries evaluation-only key %s", name, key)
			}
		}
	}
}

// TestNonFiniteResponsesFailClosed: JSON has no form for NaN or ±Inf, so
// a query response carrying one in any float field is a clean 500
// "encode-failed" — a valid JSON body, its own Content-Length, and no
// byte of the partly appended 200. A cell count or marginal that is not
// an integer below 2^53, or is −0, fails the same way. The top-k shape
// is integers and strings only; its path through respond is the one
// exercised here.
func TestNonFiniteResponsesFailClosed(t *testing.T) {
	t.Parallel()
	type encoder = func(b []byte) ([]byte, error)
	level := func(set func(v *LevelView, f float64)) func(f float64) encoder {
		return func(f float64) encoder {
			view := benchLevelView()
			set(&view, f)
			return func(b []byte) ([]byte, error) { return appendLevelResponse(b, "d", 1, 2, view) }
		}
	}
	cases := map[string]func(f float64) encoder{
		"level/count.epsilon":     level(func(v *LevelView, f float64) { v.Count.Epsilon = f }),
		"level/count.delta":       level(func(v *LevelView, f float64) { v.Count.Delta = f }),
		"level/count.sigma":       level(func(v *LevelView, f float64) { v.Count.Sigma = f }),
		"level/count.noisy_count": level(func(v *LevelView, f float64) { v.Count.NoisyCount = f }),
		"level/count.rer":         level(func(v *LevelView, f float64) { v.Count.RER = f }),
		"level/cells.epsilon":     level(func(v *LevelView, f float64) { v.Cells.Epsilon = f }),
		"level/cells.delta":       level(func(v *LevelView, f float64) { v.Cells.Delta = f }),
		"level/cells.sigma":       level(func(v *LevelView, f float64) { v.Cells.Sigma = f }),
		"level/cells.counts[0]":   level(func(v *LevelView, f float64) { v.Cells.Counts[0] = f }),
		"level/cells.counts[last]": level(func(v *LevelView, f float64) {
			v.Cells.Counts[len(v.Cells.Counts)-1] = f
		}),
		"marginal/marginals[last]": func(f float64) encoder {
			m := benchMarginals()
			m[len(m)-1] = f
			return func(b []byte) ([]byte, error) { return appendMarginalResponse(b, "d", 1, 2, 3, "left", m) }
		},
	}
	for name, mk := range cases {
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		if strings.Contains(name, "[") {
			bad = append(bad, 0.5, -2.5, math.Copysign(0, -1), 1<<53, -(1 << 53), 1e300)
		}
		for _, f := range bad {
			rr := httptest.NewRecorder()
			respond(rr, http.StatusOK, nil, mk(f))
			checkEncodeFailed(t, fmt.Sprintf("%s=%v", name, f), rr)
		}
	}
	// The cold shapes fail the same way through encoding/json.
	rr := httptest.NewRecorder()
	writeJSON(rr, http.StatusOK, map[string]any{"x": math.NaN()})
	checkEncodeFailed(t, "writeJSON", rr)
}

func checkEncodeFailed(t *testing.T, name string, rr *httptest.ResponseRecorder) {
	t.Helper()
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("%s: status %d, want 500", name, rr.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: body is not valid JSON (%v): %.80q", name, err, rr.Body.Bytes())
	}
	if body["code"] != "encode-failed" {
		t.Errorf("%s: code %q, want encode-failed", name, body["code"])
	}
	if got := rr.Header().Get("Content-Length"); got != fmt.Sprint(rr.Body.Len()) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", name, got, rr.Body.Len())
	}
}

// TestHTTPResponsesCarryContentLength: every body is complete before
// its first Write, so over a real socket a response past net/http's
// 2 KB sniff buffer still goes out with its length and not chunked.
func TestHTTPResponsesCarryContentLength(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, testConfig())
	base := srv.URL
	do(t, "POST", base+"/v1/datasets/dblp", testTSV(t), "", http.StatusCreated)
	sess := do(t, "POST", base+"/v1/datasets/dblp/sessions", []byte(`{"stream": 3}`), "application/json", http.StatusCreated)
	sid := fmt.Sprintf("%.0f", sess["session"].(float64))
	// A handle on stream 4 pays for a marginal and a top-k answer; two
	// more replay them: the first builds each encoded response, the
	// second writes it.
	stream4 := func() string {
		s := do(t, "POST", base+"/v1/datasets/dblp/sessions", []byte(`{"stream": 4}`), "application/json", http.StatusCreated)
		return fmt.Sprintf("/v1/sessions/%.0f", s["session"].(float64))
	}
	const marginal, topk = `{"level": 0, "side": "right"}`, `{"level": 1, "side": "left", "k": 5}`
	paid := stream4()
	doRaw(t, "POST", base+paid+"/marginal", []byte(marginal), "application/json", http.StatusOK)
	doRaw(t, "POST", base+paid+"/topk", []byte(topk), "application/json", http.StatusOK)
	first, later := stream4(), stream4()

	for _, q := range []struct{ path, body string }{
		{"/v1/sessions/" + sid + "/level", `{"level": 2}`},  // level view
		{"/v1/datasets/dblp/budget", ""},                    // cold shape
		{"/v1/sessions/" + sid + "/level", `{"level": 99}`}, // error body
		{first + "/marginal", marginal},                     // replay that encodes
		{first + "/topk", topk},
		{later + "/marginal", marginal}, // replay of the encoded response
		{later + "/topk", topk},
	} {
		method := "POST"
		if q.body == "" {
			method = "GET"
		}
		req, err := http.NewRequest(method, base+q.path, strings.NewReader(q.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s %s: ContentLength %d, Transfer-Encoding %v for a %d-byte body",
				method, q.path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestHTTPConcurrentCloseOneWinner: of N concurrent DELETEs of one
// session handle exactly one answers 200; the rest find it gone.
func TestHTTPConcurrentCloseOneWinner(t *testing.T) {
	t.Parallel()
	reg, err := Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if _, err := reg.AddDataset("dblp", testSource(t)); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(reg)

	const closers = 16
	for round := 0; round < 20; round++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/datasets/dblp/sessions", nil))
		var sess struct {
			Session uint64 `json:"session"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &sess); err != nil || rr.Code != http.StatusCreated {
			t.Fatalf("open session: status %d, %v: %s", rr.Code, err, rr.Body)
		}
		path := fmt.Sprintf("/v1/sessions/%d", sess.Session)

		codes := make([]int, closers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rr := httptest.NewRecorder()
				req := httptest.NewRequest("DELETE", path, nil)
				<-start
				h.ServeHTTP(rr, req)
				codes[i] = rr.Code
			}()
		}
		close(start)
		wg.Wait()
		closed := 0
		for _, code := range codes {
			switch code {
			case http.StatusOK:
				closed++
			case http.StatusNotFound:
			default:
				t.Fatalf("DELETE %s: status %d", path, code)
			}
		}
		if closed != 1 {
			t.Fatalf("round %d: %d of %d concurrent DELETEs answered 200, want exactly 1", round, closed, closers)
		}
	}
}

// FuzzOpenSessionBody posts fuzzed bodies to the session-creation
// endpoint of a tiny dataset. A body is refused with 400 bad-request or
// opens a session (201), and it opens one exactly when it is empty or a
// strict encoding/json decode (unknown fields and trailing data refused)
// accepts it. The session is pinned iff the decoded stream is set, and
// then echoes it; opening a session spends nothing.
func FuzzOpenSessionBody(f *testing.F) {
	for _, body := range []string{`{}`, `{"stream": 7}`, `{"stream": null}`, ``, `{"stream": 7} {}`} {
		f.Add([]byte(body))
	}
	reg, ds := openTestDataset(f, testConfig())
	h := NewHandler(reg)
	ops := ds.OpCount()
	f.Fuzz(func(t *testing.T, body []byte) {
		var want struct {
			Stream *uint64 `json:"stream"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&want)
		if err == nil {
			if _, tok := dec.Token(); tok != io.EOF {
				err = fmt.Errorf("trailing data")
			}
		}
		if len(body) == 0 {
			err = nil // no body: an auto session
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/tiny/sessions", bytes.NewReader(body)))
		var got struct {
			Session uint64 `json:"session"`
			Stream  uint64 `json:"stream"`
			Pinned  bool   `json:"pinned"`
			Code    string `json:"code"`
		}
		if derr := json.Unmarshal(rec.Body.Bytes(), &got); derr != nil {
			t.Fatalf("HTTP %d with an undecodable body: %v\n%s", rec.Code, derr, rec.Body)
		}
		switch {
		case err != nil:
			if rec.Code != http.StatusBadRequest || got.Code != "bad-request" {
				t.Fatalf("body %q refused by encoding/json (%v): HTTP %d %s, want 400 bad-request", body, err, rec.Code, got.Code)
			}
		case rec.Code != http.StatusCreated:
			t.Fatalf("body %q: HTTP %d %s, want 201", body, rec.Code, got.Code)
		case got.Pinned != (want.Stream != nil) || (want.Stream != nil && got.Stream != *want.Stream):
			decoded, _ := json.Marshal(want)
			t.Fatalf("body %q opened stream %d (pinned %v), decoded as %s", body, got.Stream, got.Pinned, decoded)
		default:
			del := httptest.NewRecorder()
			h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/v1/sessions/%d", got.Session), nil))
			if del.Code != http.StatusOK {
				t.Fatalf("closing session %d: HTTP %d", got.Session, del.Code)
			}
		}
		if n := ds.OpCount(); n != ops {
			t.Fatalf("body %q: dataset op count %d after opening a session, want %d", body, n, ops)
		}
	})
}
