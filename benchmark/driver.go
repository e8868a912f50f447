package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro/internal/dp"
	"repro/internal/serve"
)

// The served configuration every workload shares. The budget is large
// enough that no run can exhaust it: no operation may fail for want of ε.
var (
	totalBudget = dp.Params{Epsilon: 1e9, Delta: 0.5}
	perQuery    = dp.Params{Epsilon: 0.5, Delta: 1e-9}
)

const (
	buildRounds   = 9
	phase1Epsilon = 0.1
	// phase1Ops is the single ledger op an ingest charges: the
	// 2·rounds·ε specialization cost, admitted as one spend.
	phase1Ops = 1
)

// recorder is the in-process http.ResponseWriter: the handler writes
// into a reused buffer and no socket, scheduler wake-up or kernel copy
// sits between the client's clock reads and the program.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.header)
	r.status = 0
	r.body.Reset()
}

// caller issues requests to an http.Handler from one goroutine, reusing
// its recorder. A response is valid until the caller's next request.
type caller struct {
	handler http.Handler
	rec     recorder
	// respBytes totals the response bodies received so far.
	respBytes int64
}

func newCaller(h http.Handler) *caller {
	return &caller{handler: h, rec: recorder{header: make(http.Header)}}
}

// preparedRequest is one method+URL whose *http.Request is built once
// and re-armed with a fresh body per call, so the timed loop measures
// the handler rather than URL parsing in the harness.
type preparedRequest struct {
	req  *http.Request
	body bytes.Reader
}

func prepare(method, path string) (*preparedRequest, error) {
	req, err := http.NewRequest(method, path, nil)
	if err != nil {
		return nil, fmt.Errorf("building %s %s: %w", method, path, err)
	}
	return &preparedRequest{req: req}, nil
}

// call runs the handler on the prepared request with the given body and
// returns the status and the response bytes.
func (c *caller) call(p *preparedRequest, body []byte) (int, []byte) {
	p.body.Reset(body)
	p.req.Body = io.NopCloser(&p.body)
	p.req.ContentLength = int64(len(body))
	c.rec.reset()
	c.handler.ServeHTTP(&c.rec, p.req)
	c.respBytes += int64(c.rec.body.Len())
	return c.rec.status, c.rec.body.Bytes()
}

// once is call for a request issued a single time.
func (c *caller) once(method, path string, body []byte) (int, []byte, error) {
	p, err := prepare(method, path)
	if err != nil {
		return 0, nil, err
	}
	status, resp := c.call(p, body)
	return status, resp, nil
}

// env is one round's served system: a fresh registry, its handler, and
// dataset "d" ingested through the HTTP upload path.
type env struct {
	reg       *serve.Registry
	handler   http.Handler
	ledgerDir string // non-empty for the WAL-backed workload
}

// openEnv performs the set-up every round starts from: Open, handler,
// binary upload of the graph through the spool. Session opening is the
// workload's part of set-up and is the caller's.
func openEnv(in *inputs, wal bool, scratch string) (*env, error) {
	cfg := serve.Config{
		Budget:        totalBudget,
		PerQuery:      perQuery,
		Rounds:        buildRounds,
		Phase1Epsilon: phase1Epsilon,
		Seed:          in.seed,
		Workers:       1,
	}
	e := &env{}
	if wal {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, fmt.Errorf("creating ledger dir: %w", err)
		}
		e.ledgerDir = dir
		cfg.LedgerDir = dir
	}
	reg, err := serve.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve.Open: %w", err)
	}
	e.reg = reg
	e.handler = serve.NewHandlerWith(reg, serve.HandlerOptions{})
	if err := ingest(newCaller(e.handler), "d", in); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close shuts the registry (flushing any WAL) and removes the ledger
// directory; callers that verify the WAL do so first.
func (e *env) close() error {
	err := e.reg.Close()
	if e.ledgerDir != "" {
		if rmErr := os.RemoveAll(e.ledgerDir); err == nil {
			err = rmErr
		}
	}
	return err
}

// ingest uploads the graph as dataset name and checks the returned
// summary against what the generator produced.
func ingest(c *caller, name string, in *inputs) error {
	status, resp, err := c.once(http.MethodPost, "/v1/datasets/"+name, in.blob)
	if err != nil {
		return err
	}
	return checkIngest(status, resp, in)
}

func checkIngest(status int, resp []byte, in *inputs) error {
	if status != http.StatusCreated {
		return fmt.Errorf("ingest: HTTP %d: %s", status, bytes.TrimSpace(resp))
	}
	var out struct {
		Stats struct {
			NumLeft  int   `json:"num_left"`
			NumRight int   `json:"num_right"`
			NumEdges int64 `json:"num_edges"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return fmt.Errorf("ingest: parsing response: %w", err)
	}
	if out.Stats.NumEdges != int64(in.spec.NumEdges) ||
		out.Stats.NumLeft != int(in.spec.NumLeft) || out.Stats.NumRight != int(in.spec.NumRight) {
		return fmt.Errorf("ingest: served %d×%d nodes, %d edges; generated %d×%d, %d",
			out.Stats.NumLeft, out.Stats.NumRight, out.Stats.NumEdges,
			in.spec.NumLeft, in.spec.NumRight, in.spec.NumEdges)
	}
	return nil
}

// openSession opens a session handle on dataset "d" pinned to stream
// and returns its query path prefix.
func openSession(c *caller, stream uint64) (uint64, error) {
	body := fmt.Appendf(nil, `{"stream":%d}`, stream)
	status, resp, err := c.once(http.MethodPost, "/v1/datasets/d/sessions", body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusCreated {
		return 0, fmt.Errorf("opening session on stream %d: HTTP %d: %s", stream, status, bytes.TrimSpace(resp))
	}
	var out struct {
		Session uint64 `json:"session"`
	}
	if err := json.Unmarshal(resp, &out); err != nil || out.Session == 0 {
		return 0, fmt.Errorf("opening session on stream %d: bad response %q (%v)", stream, resp, err)
	}
	return out.Session, nil
}

func closeSession(c *caller, id uint64) error {
	status, resp, err := c.once(http.MethodDelete, fmt.Sprintf("/v1/sessions/%d", id), nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("closing session %d: HTTP %d: %s", id, status, bytes.TrimSpace(resp))
	}
	return nil
}
