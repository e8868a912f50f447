package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/dp"
)

// serveOnce runs one request through h in process. It reports nothing
// to a testing.T, so goroutines may call it.
func serveOnce(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rr
}

// openHandle opens a session handle pinned to stream on dataset name
// and returns its query path prefix, "/v1/sessions/<id>/".
func openHandle(t *testing.T, h http.Handler, name string, stream uint64) string {
	t.Helper()
	rr := serveOnce(h, "POST", "/v1/datasets/"+name+"/sessions", fmt.Sprintf(`{"stream":%d}`, stream))
	var out struct{ Session uint64 }
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil || rr.Code != http.StatusCreated {
		t.Fatalf("open session on %s: status %d, %v: %s", name, rr.Code, err, rr.Body)
	}
	return fmt.Sprintf("/v1/sessions/%d/", out.Session)
}

// postQuery posts body to the handle's endpoint and wants a 200.
func postQuery(t *testing.T, h http.Handler, handle, endpoint, body string) *httptest.ResponseRecorder {
	t.Helper()
	rr := serveOnce(h, "POST", handle+endpoint, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("POST %s%s: %d %s", handle, endpoint, rr.Code, rr.Body)
	}
	return rr
}

// memoCount counts the dataset's cache entries that hold an encoded
// response.
func memoCount(ds *Dataset) int {
	c := ds.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		if e.encoded.Load() != nil {
			n++
		}
	}
	return n
}

// sameResponse fails unless got carries want's body, Content-Type and
// Content-Length, each header with one value.
func sameResponse(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s: body %q, want %q", what, got.Body, want.Body)
	}
	for _, key := range []string{"Content-Type", "Content-Length"} {
		g, w := got.Header()[key], want.Header()[key]
		if len(g) != 1 || len(w) != 1 || g[0] != w[0] {
			t.Fatalf("%s: %s %q, want %q", what, key, g, w)
		}
	}
	if cl := got.Header().Get("Content-Length"); cl != fmt.Sprint(got.Body.Len()) {
		t.Fatalf("%s: Content-Length %s for a %d-byte body", what, cl, got.Body.Len())
	}
}

// TestServedOpsSpendOnce: through the handler, each miss of /level,
// /marginal and /topk adds exactly one ledger op and spends exactly its
// cost (2·PerQuery, PerQuery, PerQuery), and each replay — the first
// HTTP hit, which builds a marginal or top-k entry's encoded response,
// and every later one, which writes it — adds no op and spends nothing.
// An auto session's queries never replay, so each of them pays.
func TestServedOpsSpendOnce(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	reg, ds := openTestDataset(t, cfg)
	h := NewHandler(reg)
	pq := cfg.PerQuery
	queries := []struct {
		endpoint, body string
		units          float64
	}{
		{"level", `{"level":2}`, 2},
		{"marginal", `{"level":2,"side":"left"}`, 1},
		{"topk", `{"level":2,"side":"right","k":3}`, 1},
	}
	run := func(what, handle string, pays bool) {
		t.Helper()
		for _, q := range queries {
			ops, spent := ds.OpCount(), ds.Spent()
			postQuery(t, h, handle, q.endpoint, q.body)
			dOps := ds.OpCount() - ops
			dEps, dDelta := ds.Spent().Epsilon-spent.Epsilon, ds.Spent().Delta-spent.Delta
			wantOps, wantEps, wantDelta := 0, 0.0, 0.0
			if pays {
				wantOps, wantEps, wantDelta = 1, q.units*pq.Epsilon, q.units*pq.Delta
			}
			if dOps != wantOps || math.Abs(dEps-wantEps) > 1e-9*wantEps || math.Abs(dDelta-wantDelta) > 1e-9*wantDelta {
				t.Fatalf("%s /%s: %d ops, spent (%g, %g); want %d ops, (%g, %g)",
					what, q.endpoint, dOps, dEps, dDelta, wantOps, wantEps, wantDelta)
			}
		}
	}
	run("miss", openHandle(t, h, "tiny", 6), true)
	if n := memoCount(ds); n != 0 {
		t.Fatalf("misses built %d encoded responses, want 0", n)
	}
	run("first replay", openHandle(t, h, "tiny", 6), false)
	if n := memoCount(ds); n != 2 {
		t.Fatalf("the first replay built %d encoded responses, want 2 (marginal and top-k)", n)
	}
	run("second replay", openHandle(t, h, "tiny", 6), false)
	run("third replay", openHandle(t, h, "tiny", 6), false)

	rr := serveOnce(h, "POST", "/v1/datasets/tiny/sessions", `{}`)
	var auto struct{ Session uint64 }
	if err := json.Unmarshal(rr.Body.Bytes(), &auto); err != nil || rr.Code != http.StatusCreated {
		t.Fatalf("open auto session: status %d, %v", rr.Code, err)
	}
	run("auto", fmt.Sprintf("/v1/sessions/%d/", auto.Session), true)
}

// TestHTTPReplayMemoMatchesMiss: the first, second and third replay of
// a marginal and of a top-k answer carry the miss's body, Content-Type
// and Content-Length. Only the first HTTP hit builds the encoded
// response: a miss does not, and a hit through the Session API does
// not.
func TestHTTPReplayMemoMatchesMiss(t *testing.T) {
	t.Parallel()
	for _, q := range []struct{ endpoint, body string }{
		{"marginal", `{"level":1,"side":"right"}`},
		{"topk", `{"level":1,"side":"left","k":4}`},
	} {
		t.Run(q.endpoint, func(t *testing.T) {
			t.Parallel()
			reg, ds := openTestDataset(t, testConfig())
			h := NewHandler(reg)
			miss := postQuery(t, h, openHandle(t, h, "tiny", 8), q.endpoint, q.body)
			var err error
			if q.endpoint == "marginal" {
				_, err = ds.SessionAt(8).Marginal(1, bipartite.Right)
			} else {
				_, err = ds.SessionAt(8).TopK(1, bipartite.Left, 4)
			}
			if err != nil {
				t.Fatal(err)
			}
			if st := ds.CacheStats(); st.Misses != 1 || st.Hits != 1 {
				t.Fatalf("cache stats %+v, want 1 miss and the Session API's hit", st)
			}
			if n := memoCount(ds); n != 0 {
				t.Fatalf("a miss and a Session API hit built %d encoded responses, want 0", n)
			}
			for i := 1; i <= 3; i++ {
				replay := postQuery(t, h, openHandle(t, h, "tiny", 8), q.endpoint, q.body)
				sameResponse(t, fmt.Sprintf("replay %d", i), replay, miss)
				if n := memoCount(ds); n != 1 {
					t.Fatalf("after replay %d: %d encoded responses, want 1", i, n)
				}
			}
			if ops := ds.OpCount(); ops != 1 {
				t.Fatalf("%d ledger ops, want the miss's 1", ops)
			}
		})
	}
}

// TestHTTPTopKMemoPerK: top-k at k = 2 and at k = 3 at one (stream,
// seq) are two queries, so their replays write two encoded responses,
// each its own miss's.
func TestHTTPTopKMemoPerK(t *testing.T) {
	t.Parallel()
	reg, ds := openTestDataset(t, testConfig())
	h := NewHandler(reg)
	k2 := postQuery(t, h, openHandle(t, h, "tiny", 5), "topk", `{"level":2,"side":"left","k":2}`)
	k3 := postQuery(t, h, openHandle(t, h, "tiny", 5), "topk", `{"level":2,"side":"left","k":3}`)
	if bytes.Equal(k2.Body.Bytes(), k3.Body.Bytes()) {
		t.Fatal("k = 2 and k = 3 answered the same body")
	}
	for i := 1; i <= 3; i++ {
		sameResponse(t, fmt.Sprintf("k=2 replay %d", i),
			postQuery(t, h, openHandle(t, h, "tiny", 5), "topk", `{"level":2,"side":"left","k":2}`), k2)
		sameResponse(t, fmt.Sprintf("k=3 replay %d", i),
			postQuery(t, h, openHandle(t, h, "tiny", 5), "topk", `{"level":2,"side":"left","k":3}`), k3)
	}
	if n := memoCount(ds); n != 2 {
		t.Fatalf("%d encoded responses, want one per k", n)
	}
}

// TestHTTPReplayMemoDiesWithReingest: after a re-ingest of different
// data under the same name, replays write the new data's answers, not
// an encoded response of the old.
func TestHTTPReplayMemoDiesWithReingest(t *testing.T) {
	t.Parallel()
	reg, _ := openTestDataset(t, testConfig())
	h := NewHandler(reg)
	const body = `{"level":2,"side":"left"}`
	old := postQuery(t, h, openHandle(t, h, "tiny", 4), "marginal", body)
	sameResponse(t, "old replay", postQuery(t, h, openHandle(t, h, "tiny", 4), "marginal", body), old)

	if err := reg.RemoveDataset("tiny"); err != nil {
		t.Fatal(err)
	}
	edges, nl, nr, err := datagen.EdgeList(datagen.Config{
		Name: "serve-test-b", NumLeft: 120, NumRight: 150, NumEdges: 1800,
		LeftZipf: 1.9, RightZipf: 2.6, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := reg.AddDataset("tiny", bipartite.NewSliceSource(nl, nr, edges))
	if err != nil {
		t.Fatal(err)
	}
	fresh := postQuery(t, h, openHandle(t, h, "tiny", 4), "marginal", body)
	if bytes.Equal(fresh.Body.Bytes(), old.Body.Bytes()) {
		t.Fatal("different data under one name answered the old body")
	}
	for i := 1; i <= 2; i++ {
		sameResponse(t, fmt.Sprintf("replay %d after re-ingest", i),
			postQuery(t, h, openHandle(t, h, "tiny", 4), "marginal", body), fresh)
	}
	if n := memoCount(ds); n != 1 {
		t.Fatalf("re-ingested dataset holds %d encoded responses, want 1", n)
	}
}

// TestHTTPReplayHeadersNotShared: a caller that edits a replay's header
// values in place — the one that built the encoded response, or a later
// one — does not change the next replay's headers.
func TestHTTPReplayHeadersNotShared(t *testing.T) {
	t.Parallel()
	reg, _ := openTestDataset(t, testConfig())
	h := NewHandler(reg)
	const body = `{"level":1,"side":"left"}`
	miss := postQuery(t, h, openHandle(t, h, "tiny", 2), "marginal", body)
	for i := 1; i <= 3; i++ {
		replay := postQuery(t, h, openHandle(t, h, "tiny", 2), "marginal", body)
		sameResponse(t, fmt.Sprintf("replay %d", i), replay, miss)
		hdr := replay.Header()
		hdr["Content-Type"][0] = "text/plain"
		hdr["Content-Length"][0] = "0"
		hdr["Content-Length"] = append(hdr["Content-Length"], "1")
	}
}

// TestHTTPConcurrentReplayMemo is the encoded response's -race
// contract: a leader pays for four answers on one stream, then eight
// goroutines, each on handles pinned to that stream, race the first
// HTTP hits of those keys (which build the encoded responses) and then
// replay them again. Every body is the leader's, and each key was
// debited once.
func TestHTTPConcurrentReplayMemo(t *testing.T) {
	t.Parallel()
	reg, ds := openTestDataset(t, testConfig())
	h := NewHandler(reg)
	queries := []struct{ endpoint, body string }{
		{"marginal", `{"level":1,"side":"left"}`},
		{"topk", `{"level":2,"side":"right","k":3}`},
		{"marginal", `{"level":0,"side":"right"}`},
		{"topk", `{"level":1,"side":"left","k":2}`},
	}
	ops := ds.OpCount()
	leader := openHandle(t, h, "tiny", 12)
	want := make([][]byte, len(queries))
	for i, q := range queries {
		want[i] = bytes.Clone(postQuery(t, h, leader, q.endpoint, q.body).Body.Bytes())
	}
	if got := ds.OpCount() - ops; got != len(queries) {
		t.Fatalf("the leader's %d misses added %d ledger ops", len(queries), got)
	}

	const replayers, passes = 8, 2
	handles := make([][passes]string, replayers)
	for g := range handles {
		for p := range handles[g] {
			handles[g][p] = openHandle(t, h, "tiny", 12)
		}
	}
	errs := make(chan error, replayers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, handle := range handles[g] {
				for i, q := range queries {
					rr := serveOnce(h, "POST", handle+q.endpoint, q.body)
					if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), want[i]) {
						errs <- fmt.Errorf("replayer %d, %s query %d: %d %q, want the leader's %q", g, handle, i, rr.Code, rr.Body, want[i])
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := ds.OpCount() - ops; got != len(queries) {
		t.Fatalf("%d ledger ops for %d keys, want one each", got, len(queries))
	}
	if n := memoCount(ds); n != len(queries) {
		t.Fatalf("%d encoded responses for %d keys", n, len(queries))
	}
}

// maxMemoHitAllocs is the measured allocation count of a /marginal hit
// whose entry already holds its encoded response
// (TestHTTPMarginalMemoHitAllocs): net/http's route match (the {id}
// path value) and the response's pair of Content-Type and
// Content-Length values. A scanned query body allocates nothing.
const maxMemoHitAllocs = 2

// TestHTTPMarginalMemoHitAllocs holds the steady-state replay path to
// maxMemoHitAllocs: the keys a first handle paid for are replayed by a
// second handle, which builds their encoded responses, and then by a
// third, measured one, into a reused ResponseWriter from a reused
// request.
func TestHTTPMarginalMemoHitAllocs(t *testing.T) {
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
	const runs = 100
	const body = `{"level":3,"side":"left"}`
	for pass := 0; pass < 2; pass++ {
		handle := openHandle(t, h, "tiny", 7)
		for i := 0; i <= runs; i++ {
			postQuery(t, h, handle, "marginal", body)
		}
	}
	if n := memoCount(ds); n != runs+1 {
		t.Fatalf("%d encoded responses after the first replay, want %d", n, runs+1)
	}
	q := []byte(body)
	r := bytes.NewReader(nil)
	req := httptest.NewRequest("POST", openHandle(t, h, "tiny", 7)+"marginal", nil)
	req.Body = io.NopCloser(r)
	w := &replayWriter{header: http.Header{}}
	hits := ds.CacheStats().Hits
	allocs := testing.AllocsPerRun(runs, func() {
		r.Reset(q)
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("replayed /marginal: status %d", w.status)
		}
	})
	if got := ds.CacheStats().Hits - hits; got != runs+1 {
		t.Fatalf("%d of %d replays were cache hits", got, runs+1)
	}
	t.Logf("/marginal encoded-response hit: %.1f allocs/op", allocs)
	if allocs > maxMemoHitAllocs {
		t.Errorf("/marginal encoded-response hit through the handler: %.1f allocs/op, ceiling %d", allocs, maxMemoHitAllocs)
	}
}
