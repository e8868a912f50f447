//go:build unix

package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestHTTPPathIngestRefusesNonRegular: path ingest answers a FIFO with no
// writer, a directory and a device with 400 within a deadline, instead of
// parking the handler in open(2) until a writer shows up. A taken name or
// an unknown strategy is refused before the named file is opened at all:
// the FIFO again, so opening it first would be seen here.
func TestHTTPPathIngestRefusesNonRegular(t *testing.T) {
	t.Parallel()
	reg, err := Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	h := NewHandlerWith(reg, HandlerOptions{AllowPathIngest: true})

	dir := t.TempDir()
	fifo := filepath.Join(dir, "edges.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	// Should a request block in open(2), a writer releases it when the
	// test ends.
	t.Cleanup(func() {
		if w, err := os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
			w.Close()
		}
	})
	edges := filepath.Join(dir, "edges.tsv")
	if err := os.WriteFile(edges, testTSV(t), 0o644); err != nil {
		t.Fatal(err)
	}

	post := func(name, body string) (int, map[string]any) {
		t.Helper()
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rr := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/v1/datasets/"+name, strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			h.ServeHTTP(rr, req)
			done <- rr
		}()
		select {
		case rr := <-done:
			var out map[string]any
			if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s: bad JSON: %v\n%s", body, err, rr.Body.Bytes())
			}
			return rr.Code, out
		case <-time.After(10 * time.Second):
			t.Fatalf("POST %s %s: no answer within 10 s", name, body)
			return 0, nil
		}
	}
	pathBody := func(path, strategy string) string {
		b, _ := json.Marshal(map[string]string{"path": path, "strategy": strategy})
		return string(b)
	}
	if code, out := post("taken", pathBody(edges, "")); code != http.StatusCreated {
		t.Fatalf("ingest of a regular file: %d %v", code, out)
	}
	for _, tc := range []struct {
		name, path, strategy, code string
		status                     int
	}{
		{"fresh", fifo, "", "bad-request", http.StatusBadRequest},
		{"fresh", dir, "", "bad-request", http.StatusBadRequest},
		{"fresh", os.DevNull, "", "bad-request", http.StatusBadRequest},
		{"taken", fifo, "", "dataset-exists", http.StatusConflict},
		{"fresh", fifo, "no-such-strategy", "bad-config", http.StatusBadRequest},
	} {
		status, out := post(tc.name, pathBody(tc.path, tc.strategy))
		if status != tc.status || out["code"] != tc.code {
			t.Errorf("%s ← %s (strategy %q): got %d %v, want %d %s", tc.name, tc.path, tc.strategy, status, out, tc.status, tc.code)
		}
	}
	if code, out := post("fresh", pathBody(edges, "")); code != http.StatusCreated {
		t.Fatalf("ingest after the refusals under the same name: %d %v", code, out)
	}
}
