package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"repro/internal/dp"
	"repro/internal/serve"
)

type opKind int

const (
	kindMiss      opKind = iota // every op a cache miss on the client's own stream
	kindHitReplay               // every op a cache hit replaying the leader's stream
	kindIngest                  // every op a dataset upload
)

// workload is one traffic shape. Names are permanent: BENCHMARK.json,
// the README and every later comparison refer to them.
type workload struct {
	name string
	why  string
	kind opKind
	// clients is the closed loop's size: each client sends its next
	// request only after validating the previous response.
	clients int
	wal     bool // durable FsyncAlways ledger instead of the in-memory one

	endpoint string // "marginal" or "level"
	level    int
	body     []byte // request body of the timed query
	arrayKey string // JSON key of the response's number array
	arrayLen int    // and its required length
	// costUnits is the ledger cost of one miss in PerQuery units (a view
	// is count + histogram = 2).
	costUnits int

	// nominalOps is the per-round op count the round length was sized
	// with on the reference box; smoke runs use a hundredth of it.
	nominalOps int
	// traceOps is the fixed op count of the traced replay, so every count
	// the trace reports repeats exactly.
	traceOps int
}

const (
	queryClients = 2
	// replayLen is how many answers the hit_replay leader pre-computes
	// and each replay cycle re-reads; it fits the 1024-entry cache.
	replayLen    = 512
	leaderStream = 7
	// warmOps is the untimed per-client warm-up before each timed phase.
	warmOps = 100
	// fullParseEvery: every response is checked for status, array length
	// and number syntax by a byte scan; one in fullParseEvery (and each
	// client's first) is also decoded by encoding/json, so the check
	// costs the closed loop a few percent rather than a fifth.
	fullParseEvery = 64
)

var workloads = []*workload{
	{
		name: "miss_mem", kind: kindMiss, clients: queryClients,
		why:      "mid-level marginal, all cache misses, in-memory ledger: the default deployment's common query, where HTTP, session, cache insert+evict, ledger spend, kernel and tail share the time",
		endpoint: "marginal", level: 3, body: []byte(`{"level":3,"side":"left"}`),
		arrayKey: "marginals", arrayLen: 64, costUnits: 1,
		nominalOps: 80_000, traceOps: 4_000,
	},
	{
		name: "hit_replay", kind: kindHitReplay, clients: queryClients,
		why:      "replays 512 cached marginals: bypasses ledger, kernel and tail, so per-request overhead shows most and a ledger or kernel change must read no change",
		endpoint: "marginal", level: 3, body: []byte(`{"level":3,"side":"left"}`),
		arrayKey: "marginals", arrayLen: 64, costUnits: 1,
		nominalOps: 102_400, traceOps: 8 * replayLen,
	},
	{
		name: "fine_kernel", kind: kindMiss, clients: queryClients,
		why:      "finest-level marginal misses: 262144 Gaussian draws plus the add pass per op and a small response, so the noise kernel bounds it",
		endpoint: "marginal", level: 0, body: []byte(`{"level":0,"side":"left"}`),
		arrayKey: "marginals", arrayLen: 512, costUnits: 1,
		nominalOps: 4_000, traceOps: 300,
	},
	{
		name: "view_encode", kind: kindMiss, clients: queryClients,
		why:      "level-3 view misses: count plus a 4096-cell histogram cloned into the cache and JSON-encoded whole, the paper's per-tier view, encode-bound",
		endpoint: "level", level: 3, body: []byte(`{"level":3}`),
		arrayKey: "counts", arrayLen: 4096, costUnits: 2,
		nominalOps: 4_000, traceOps: 300,
	},
	{
		name: "miss_wal", kind: kindMiss, clients: queryClients, wal: true,
		why:      "the miss_mem query on the durable ledger (fsync before every admission, snapshot+compaction every 1024 records): the difference to miss_mem is the WAL",
		endpoint: "marginal", level: 3, body: []byte(`{"level":3,"side":"left"}`),
		arrayKey: "marginals", arrayLen: 64, costUnits: 1,
		nominalOps: 12_000, traceOps: 1_500,
	},
	{
		name: "ingest", kind: kindIngest, clients: 1,
		why:        "uploads the 2M-edge graph again and again: spool, two decode passes, the exponential-mechanism hierarchy build and the phase-1 spend, the write side the query workloads only read",
		nominalOps: 12, traceOps: 3,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opCost is the ledger cost of one miss of this workload.
func (w *workload) opCost() dp.Params {
	return dp.Params{Epsilon: float64(w.costUnits) * perQuery.Epsilon, Delta: float64(w.costUnits) * perQuery.Delta}
}

// warmLimit is the untimed per-client warm-up before a timed phase.
func (w *workload) warmLimit(smoke bool) phaseLimit {
	ops := warmOps
	if w.kind == kindIngest {
		ops = 1
	}
	if smoke {
		ops = min(ops, 10)
	}
	return phaseLimit{ops: ops}
}

// inputs is everything a run derives from -seed before any clock starts.
type inputs struct {
	seed uint64
	spec graphSpec
	blob []byte // the graph in the program's binary codec
}

func makeInputs(spec graphSpec, seed uint64) (*inputs, error) {
	keys, err := generateEdges(spec, seed)
	if err != nil {
		return nil, err
	}
	blob, err := encodeGraph(spec, keys)
	if err != nil {
		return nil, err
	}
	return &inputs{seed: seed, spec: spec, blob: blob}, nil
}

// opStream is one client's endless sequence of timed operations. next
// runs one op and returns its start and end instants; the error is a
// failed correctness check (the op still counts as attempted). Work the
// workload needs between ops — opening and deleting replay sessions,
// removing the ingested dataset — happens inside next but outside
// [start, end], so it costs wall time, not latency.
type opStream interface {
	next() (start, end time.Time, err error)
	close() error
	client() *caller
}

// streamClient is the caller every op stream owns.
type streamClient struct{ c *caller }

func (s streamClient) client() *caller { return s.c }

// openQuerySession opens a session pinned to stream and prepares the
// workload's query request on it.
func openQuerySession(c *caller, w *workload, stream uint64) (uint64, *preparedRequest, error) {
	id, err := openSession(c, stream)
	if err != nil {
		return 0, nil, err
	}
	req, err := prepare(http.MethodPost, fmt.Sprintf("/v1/sessions/%d/%s", id, w.endpoint))
	return id, req, err
}

type missStream struct {
	streamClient
	w       *workload
	session uint64
	req     *preparedRequest
	n       int
}

func newMissStream(w *workload, e *env, stream uint64) (*missStream, error) {
	c := newCaller(e.handler)
	id, req, err := openQuerySession(c, w, stream)
	if err != nil {
		return nil, err
	}
	return &missStream{streamClient: streamClient{c}, w: w, session: id, req: req}, nil
}

func (s *missStream) next() (time.Time, time.Time, error) {
	start := time.Now()
	status, resp := s.c.call(s.req, s.w.body)
	end := time.Now()
	err := s.w.checkQuery(status, resp, s.n%fullParseEvery == 0)
	s.n++
	return start, end, err
}

func (s *missStream) close() error { return closeSession(s.c, s.session) }

// hitStream replays the leader's answers: open a session pinned to the
// leader's stream, re-read its replayLen answers (all cache hits, each
// byte-compared with the leader's body), delete the session, repeat.
type hitStream struct {
	streamClient
	w       *workload
	want    [][]byte
	session uint64
	req     *preparedRequest // nil between replay cycles
	pos     int
}

func (s *hitStream) next() (time.Time, time.Time, error) {
	if s.req == nil {
		id, req, err := openQuerySession(s.c, s.w, leaderStream)
		if err != nil {
			now := time.Now()
			return now, now, err
		}
		s.session, s.req, s.pos = id, req, 0
	}
	start := time.Now()
	status, resp := s.c.call(s.req, s.w.body)
	end := time.Now()
	var err error
	switch {
	case status != http.StatusOK:
		err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(resp))
	case !bytes.Equal(resp, s.want[s.pos]):
		err = fmt.Errorf("replayed answer %d differs from the leader's bytes", s.pos)
	}
	s.pos++
	if s.pos == len(s.want) {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}
	return start, end, err
}

func (s *hitStream) close() error {
	if s.req == nil {
		return nil
	}
	s.req = nil
	return closeSession(s.c, s.session)
}

// leaderAnswers runs the hit_replay leader: replayLen fully validated
// misses on the leader stream, whose bodies every replay must reproduce.
func leaderAnswers(w *workload, e *env) ([][]byte, error) {
	leader, err := newMissStream(w, e, leaderStream)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, replayLen)
	for i := range bodies {
		status, resp := leader.c.call(leader.req, w.body)
		if err := w.checkQuery(status, resp, true); err != nil {
			return nil, fmt.Errorf("leader answer %d: %w", i, err)
		}
		bodies[i] = bytes.Clone(resp)
	}
	return bodies, leader.close()
}

// ingestStream uploads the graph as dataset "w", checks what was built,
// and removes it again.
type ingestStream struct {
	streamClient
	in    *inputs
	reg   *serve.Registry
	req   *preparedRequest
	print uint64 // fingerprint of the first build; every later one must match
	n     int
}

func (s *ingestStream) next() (time.Time, time.Time, error) {
	start := time.Now()
	status, resp := s.c.call(s.req, s.in.blob)
	end := time.Now()
	err := checkIngest(status, resp, s.in)
	if err == nil {
		err = s.checkBuilt()
	}
	s.n++
	if status == http.StatusCreated {
		if rmErr := s.reg.RemoveDataset("w"); err == nil {
			err = rmErr
		}
	}
	return start, end, err
}

// checkBuilt holds an ingested dataset to one phase-1 ledger op and the
// first build's fingerprint.
func (s *ingestStream) checkBuilt() error {
	ds, err := s.reg.Dataset("w")
	if err != nil {
		return err
	}
	if got := ds.OpCount(); got != phase1Ops {
		return fmt.Errorf("ingested dataset has %d ledger ops, want %d", got, phase1Ops)
	}
	print, err := treeFingerprint(ds)
	if err != nil {
		return err
	}
	if s.n == 0 {
		s.print = print
	} else if print != s.print {
		return fmt.Errorf("ingest %d built tree %016x, the first built %016x", s.n, print, s.print)
	}
	return nil
}

func (s *ingestStream) close() error { return nil }

// newStreams opens the round's sessions: one op stream per client. It
// is the workload's share of set-up.
func newStreams(w *workload, in *inputs, e *env, clients int) ([]opStream, error) {
	streams := make([]opStream, clients)
	for i := range streams {
		switch w.kind {
		case kindMiss:
			s, err := newMissStream(w, e, uint64(1000+i))
			if err != nil {
				return nil, err
			}
			streams[i] = s
		case kindHitReplay:
			streams[i] = &hitStream{streamClient: streamClient{newCaller(e.handler)}, w: w}
		case kindIngest:
			req, err := prepare(http.MethodPost, "/v1/datasets/w")
			if err != nil {
				return nil, err
			}
			streams[i] = &ingestStream{streamClient: streamClient{newCaller(e.handler)}, in: in, reg: e.reg, req: req}
		}
	}
	return streams, nil
}
