package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/dp"
	"repro/internal/release"
)

// HTTP/JSON front end over a Registry.
//
//	POST   /v1/datasets/{name}           ingest (body: TSV/binary edges, or JSON {"path": ...})
//	GET    /v1/datasets                  list datasets
//	GET    /v1/datasets/{name}           dataset info (stats + ledger summary)
//	GET    /v1/datasets/{name}/budget    ledger state + audit report
//	POST   /v1/datasets/{name}/sessions  open a session handle ({"stream": n} pins the RNG stream;
//	                                     auto sessions derive from a disjoint stream domain)
//	DELETE /v1/sessions/{id}             close a session handle
//	POST   /v1/sessions/{id}/level       {"level": l} → level view (count + histogram)
//	POST   /v1/sessions/{id}/marginal    {"level": l, "side": "left"|"right"}
//	POST   /v1/sessions/{id}/topk        {"level": l, "side": ..., "k": n}
//	GET    /healthz                      liveness (process answers)
//	GET    /readyz                       readiness (ingests settled, ledger sequencer reachable)
//
// Budget exhaustion returns 429 with code "budget-exhausted"; the
// ledger was not debited and no noise was drawn. Query responses are a
// pure function of (seed, dataset, stream id, session query sequence,
// query parameters), so replaying a pinned stream returns
// byte-identical bodies for the same query sequence, while distinct
// queries draw independent noise even on a shared stream id. Replays
// resident in the dataset's response cache are served without a ledger
// debit (the DP cost of those bytes was already paid; the budget
// endpoint's "cache" stats count them), so read-heavy clients replaying
// pinned streams do not drain budgets.

// maxQueryBody bounds the JSON bodies of query endpoints.
const maxQueryBody = 1 << 20

// Serving-surface resource defaults (see HandlerOptions).
const (
	DefaultMaxUploadBytes = int64(1) << 30 // 1 GiB per ingest upload
	DefaultMaxSessions    = 1024           // open handles per handler
)

// HandlerOptions configures the HTTP front end.
type HandlerOptions struct {
	// AllowPathIngest permits JSON {"path": ...} ingest bodies, which
	// open server-side files. Off by default: on a reachable listener
	// that is an arbitrary-file read oracle (ingest parse errors echo
	// file fragments back to the client). Enable only for trusted or
	// loopback deployments; uploads in the request body are always
	// allowed.
	AllowPathIngest bool
	// MaxUploadBytes caps the size of an ingest request body before it
	// is spooled to the server's temp disk. Oversized uploads get 413.
	// 0 selects DefaultMaxUploadBytes; negative disables the cap.
	MaxUploadBytes int64
	// MaxSessions caps the concurrently open session handles; opening
	// one past the cap gets 429 until a handle is DELETEd. 0 selects
	// DefaultMaxSessions; negative disables the cap.
	MaxSessions int
}

// withDefaults resolves the zero-value resource caps.
func (o HandlerOptions) withDefaults() HandlerOptions {
	if o.MaxUploadBytes == 0 {
		o.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if o.MaxSessions == 0 {
		o.MaxSessions = DefaultMaxSessions
	}
	return o
}

// NewHandler returns the HTTP front end for a registry with default
// options (server-side path ingest disabled).
func NewHandler(reg *Registry) http.Handler { return NewHandlerWith(reg, HandlerOptions{}) }

// NewHandlerWith returns the HTTP front end with explicit options.
func NewHandlerWith(reg *Registry, opts HandlerOptions) http.Handler {
	s := &httpServer{reg: reg, opts: opts.withDefaults(), sessions: make(map[uint64]*httpSession)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /readyz", s.readyz)
	mux.HandleFunc("GET /v1/datasets", s.listDatasets)
	mux.HandleFunc("POST /v1/datasets/{name}", s.ingest)
	mux.HandleFunc("GET /v1/datasets/{name}", s.datasetInfo)
	mux.HandleFunc("GET /v1/datasets/{name}/budget", s.budget)
	mux.HandleFunc("POST /v1/datasets/{name}/sessions", s.openSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.closeSession)
	mux.HandleFunc("POST /v1/sessions/{id}/level", s.query(queryKindView))
	mux.HandleFunc("POST /v1/sessions/{id}/marginal", s.query(queryKindMarginal))
	mux.HandleFunc("POST /v1/sessions/{id}/topk", s.query(queryKindTopK))
	return mux
}

// httpServer carries the handler state: the registry plus the open
// session handles. Handle ids are process-local (they number the
// handles, not the RNG streams — a pinned stream can be reopened under
// a fresh handle after a restart and replay identically).
type httpServer struct {
	reg  *Registry
	opts HandlerOptions

	mu       sync.Mutex
	nextID   uint64
	sessions map[uint64]*httpSession
}

// httpSession serializes queries on one session handle: a Session is
// not safe for concurrent use, so concurrent requests to one handle
// queue on its mutex while requests to different handles run fully in
// parallel.
type httpSession struct {
	mu   sync.Mutex
	sess *Session
}

// bodyBuffers pools request and response bodies across requests,
// keeping the HTTP serving path allocation-flat under sustained load: a
// request body is read whole into a pooled []byte and parsed, a
// response is appended whole to one, written, and the slice returned
// with whatever capacity it grew. Buffers that ballooned on an unusually
// large body are dropped instead of pooled so one outlier cannot pin
// megabytes.
var bodyBuffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the capacity a body buffer may keep when it
// returns to the pool. It is sized to hold a deep level view (a
// 4^9-cell histogram serializes to a few MB) so the largest — and most
// reallocation-sensitive — responses benefit from pooling too; sync.Pool
// entries are dropped across GC cycles, so a ballooned buffer is
// retained only transiently even at this cap.
const maxPooledBody = 8 << 20

// putBody returns a body buffer, now holding b, to bodyBuffers.
func putBody(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyBuffers.Put(bp)
	}
}

// encodeFailedBody is the 500 a response that cannot be encoded gets.
const encodeFailedBody = `{"error":"serve: encoding response","code":"encode-failed"}` + "\n"

// respond is the one response writer. The body is complete before the
// first byte goes out, so an encode error (a NaN or ±Inf has no JSON
// form; a released count that is not an integer) surfaces as a clean
// 500 in the error shape every other response uses, and Content-Length
// is always known — net/http does not fall back to chunked encoding past
// its sniff buffer. Content-Type and Content-Length come from one
// headerValues pair, each value its own capped one-element slice, so no
// value slice is shared between responses.
//
// e is the cache entry of a hit on a marginal or top-k, else nil. The
// entry's first HTTP hit encodes into a pooled buffer as a miss does,
// keeps an exact-size copy of the body on the entry, and writes it;
// every later hit writes that copy with no encode. Of concurrent first
// hits one CAS publishes its copy; the others write their own,
// byte-identical one. An encode error keeps nothing.
func respond(w http.ResponseWriter, status int, e *cacheEntry, encode func(b []byte) ([]byte, error)) {
	var m *encodedResponse
	if e != nil {
		m = e.encoded.Load()
	}
	var vals *headerValues
	var body []byte
	var bp *[]byte
	if m != nil {
		vals, body = &headerValues{"application/json", m.contentLength}, m.body
	} else {
		bp = bodyBuffers.Get().(*[]byte)
		var err error
		body, err = encode((*bp)[:0])
		if err != nil {
			status, body = http.StatusInternalServerError, append(body[:0], encodeFailedBody...)
		}
		length := strconv.Itoa(len(body))
		if err == nil && e != nil {
			m = &encodedResponse{body: bytes.Clone(body), contentLength: length, first: headerValues{"application/json", length}}
			e.encoded.CompareAndSwap(nil, m)
			vals = &m.first
		} else {
			vals = &headerValues{"application/json", length}
		}
	}
	h := w.Header()
	h["Content-Type"] = vals[0:1:1]
	h["Content-Length"] = vals[1:2:2]
	w.WriteHeader(status)
	_, _ = w.Write(body)
	if bp != nil {
		putBody(bp, body)
	}
}

// writeJSON writes one response through encoding/json: the cold shapes
// (health, dataset list and info, budget, session open and close). The
// query responses and the error body have append encoders (encode.go).
func writeJSON(w http.ResponseWriter, status int, v any) {
	respond(w, status, nil, func(b []byte) ([]byte, error) {
		buf := bytes.NewBuffer(b)
		enc := json.NewEncoder(buf)
		enc.SetIndent("", "  ")
		err := enc.Encode(v)
		return buf.Bytes(), err
	})
}

// writeError writes the uniform error shape {error, code}.
func writeError(w http.ResponseWriter, status int, msg, code string) {
	respond(w, status, nil, func(b []byte) ([]byte, error) { return appendErrorBody(b, msg, code), nil })
}

// errSpool marks server-side ingest-spool failures (temp-disk full,
// unwritable temp dir) — the client did nothing wrong, so they map to
// 500 rather than the default 400.
var errSpool = errors.New("serve: spooling ingest body")

// writeErr maps registry errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	status, code := http.StatusBadRequest, "bad-request"
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		status, code = http.StatusRequestEntityTooLarge, "body-too-large"
	case errors.Is(err, errSpool):
		status, code = http.StatusInternalServerError, "ingest-spool-failed"
	case errors.Is(err, accountant.ErrBudgetExceeded):
		status, code = http.StatusTooManyRequests, "budget-exhausted"
	case errors.Is(err, accountant.ErrLedgerFailed),
		errors.Is(err, accountant.ErrLedgerClosed),
		errors.Is(err, accountant.ErrLedgerLocked),
		errors.Is(err, accountant.ErrLedgerCorrupt):
		// Server-side ledger states, not the client's request: a query
		// racing a dataset's removal, a WAL another process holds, a
		// damaged one.
		status, code = http.StatusServiceUnavailable, "ledger-failed"
	case errors.Is(err, ErrUnknownDataset):
		status, code = http.StatusNotFound, "unknown-dataset"
	case errors.Is(err, ErrUnknownSession):
		status, code = http.StatusNotFound, "unknown-session"
	case errors.Is(err, ErrDatasetExists):
		status, code = http.StatusConflict, "dataset-exists"
	case errors.Is(err, ErrBadConfig):
		status, code = http.StatusBadRequest, "bad-config"
	case errors.Is(err, ErrClosed):
		status, code = http.StatusServiceUnavailable, "registry-closed"
	}
	writeError(w, status, err.Error(), code)
}

func (s *httpServer) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "datasets": len(s.reg.Names())})
}

// readyz is the load-balancer gate: 200 only when this replica can
// actually answer AND account a query right now. Liveness stays on
// /healthz — a replica mid-ingest or cut off from its ledger sequencer
// is alive but must not take traffic.
func (s *httpServer) readyz(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.reg.Ready()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "reason": reason})
}

// datasetJSON is the dataset summary shape shared by list/info/ingest.
type datasetJSON struct {
	Name     string          `json:"name"`
	Stats    bipartite.Stats `json:"stats"`
	MaxLevel int             `json:"max_level"`
	// Strategy names the dataset's release strategy when it is not the
	// default — absence IS the default, the same convention the release
	// artifact uses, which keeps default-strategy response bytes
	// identical to the pre-strategy serving layer.
	Strategy  string    `json:"strategy,omitempty"`
	Budget    dp.Params `json:"budget"`
	Spent     dp.Params `json:"spent"`
	Remaining dp.Params `json:"remaining"`
}

// strategyLabel is a dataset's strategy name for response bodies: empty
// for the default strategy (field omitted), the registry name otherwise.
func strategyLabel(d *Dataset) string {
	if s := d.Strategy(); s != release.DefaultStrategyName {
		return s
	}
	return ""
}

func describeDataset(d *Dataset) datasetJSON {
	return datasetJSON{
		Name:      d.Name(),
		Stats:     d.Stats(),
		MaxLevel:  d.MaxLevel(),
		Strategy:  strategyLabel(d),
		Budget:    d.Budget(),
		Spent:     d.Spent(),
		Remaining: d.Remaining(),
	}
}

func (s *httpServer) listDatasets(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	sort.Strings(names)
	out := make([]datasetJSON, 0, len(names))
	for _, name := range names {
		if ds, err := s.reg.Dataset(name); err == nil {
			out = append(out, describeDataset(ds))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

// ingest cold-starts a dataset. A JSON body {"path": "..."} streams a
// server-side file; any other body is spooled to a temporary file
// (bounded by MaxUploadBytes so a client cannot fill the temp disk)
// and streamed from there, so the edges are never resident in memory
// regardless of upload size. The format is sniffed from the first
// bytes: "BPG1" selects the binary codec, anything else is TSV.
//
// The release strategy is selected per dataset with the ?strategy=
// query parameter (raw uploads, whose body is edge data) or the
// "strategy" JSON field (path ingest; it wins when both are given).
// Unknown names fail with 400 "bad-config" before any build work, and —
// like a name that is already taken, 409 "dataset-exists" — before a
// server-side file is opened or a raw upload's body is read. A path that
// names anything but a regular file (a FIFO, a directory, a device) is a
// 400, refused without blocking.
func (s *httpServer) ingest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	opts := DatasetOptions{Strategy: r.URL.Query().Get("strategy")}
	var path string
	if mediaType, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && mediaType == "application/json" {
		if !s.opts.AllowPathIngest {
			writeError(w, http.StatusForbidden,
				"serve: server-side path ingest is disabled (start the server with path ingest enabled, or upload the edge file as the request body)",
				"path-ingest-disabled")
			return
		}
		var req struct {
			Path     string `json:"path"`
			Strategy string `json:"strategy"`
		}
		if err := decodeBody(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		if req.Path == "" {
			writeErr(w, errors.New("serve: ingest JSON body requires \"path\""))
			return
		}
		if req.Strategy != "" {
			opts.Strategy = req.Strategy
		}
		path = req.Path
	}
	// Refuse what needs no edge data — an unknown strategy, a taken name
	// — before touching the named file or spooling up to MaxUploadBytes of
	// body to disk.
	if err := s.reg.checkIngest(name, opts); err != nil {
		writeErr(w, err)
		return
	}
	var f *os.File
	if path != "" {
		file, err := openIngestPath(path)
		if err != nil {
			writeErr(w, err)
			return
		}
		f = file
	} else {
		body := io.Reader(r.Body)
		if s.opts.MaxUploadBytes > 0 {
			body = http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
		}
		tmp, err := spoolBody(body)
		if err != nil {
			writeErr(w, err)
			return
		}
		defer os.Remove(tmp.Name())
		f = tmp
	}
	defer f.Close()

	src, err := OpenEdgeSourceFile(f)
	if err != nil {
		writeErr(w, err)
		return
	}
	ds, err := s.reg.AddDatasetWith(name, src, opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, describeDataset(ds))
}

// openIngestPath opens a server-side edge file for path ingest. The
// open never blocks (openNonblock: a FIFO with no writer opens at once
// instead of parking the handler), and anything but a regular file is
// refused.
func openIngestPath(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDONLY|openNonblock, 0)
	if err != nil {
		return nil, fmt.Errorf("serve: opening %q: %w", path, err)
	}
	fi, err := f.Stat()
	if err == nil && !fi.Mode().IsRegular() {
		err = fmt.Errorf("serve: %q is not a regular file", path)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// spoolBody writes an upload to an unlinked-on-ingest temp file so the
// edge bytes back a seekable two-pass source without living in RAM.
func spoolBody(body io.Reader) (*os.File, error) {
	tmp, err := os.CreateTemp("", "gdpserve-ingest-*")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errSpool, err)
	}
	// io.Copy surfaces one error for either side; track the write side
	// so only temp-file faults (the server's) map to errSpool/500, while
	// client-side body read errors stay 400.
	tw := &trackedWriter{w: tmp}
	if _, err := io.Copy(tw, body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		// An over-cap body is the client's fault (413), not a spool
		// fault; keep the MaxBytesError chain intact for writeErr.
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			return nil, fmt.Errorf("serve: spooling ingest body: %w", err)
		case tw.err != nil:
			return nil, fmt.Errorf("%w: %v", errSpool, err)
		default:
			return nil, fmt.Errorf("serve: reading ingest body: %v", err)
		}
	}
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("%w: rewinding: %v", errSpool, err)
	}
	return tmp, nil
}

// trackedWriter records whether the destination side of a copy failed.
type trackedWriter struct {
	w   io.Writer
	err error
}

func (t *trackedWriter) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	if err != nil {
		t.err = err
	}
	return n, err
}

// OpenEdgeSourceFile sniffs an edge file's format (bipartite.BinaryMagic
// = binary codec, otherwise TSV) and returns a chunked source over it —
// the ingest path cmd/gdpserve, the HTTP upload and gdpbench -edges
// share.
func OpenEdgeSourceFile(f *os.File) (bipartite.EdgeSource, error) {
	var magic [len(bipartite.BinaryMagic)]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("serve: sniffing %s: %w", f.Name(), err)
	}
	if n == len(magic) && string(magic[:]) == bipartite.BinaryMagic {
		return bipartite.NewBinaryEdgeSource(f)
	}
	return bipartite.NewTSVEdgeSource(f)
}

func (s *httpServer) datasetInfo(w http.ResponseWriter, r *http.Request) {
	ds, err := s.reg.Dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, describeDataset(ds))
}

// durabilityJSON is the /budget "durability" field: every dataset
// stamps its accounting backend ("mem", "wal" or "remote" — a debit is
// on the query path, so timings never compare across backends); durable
// datasets embed the full accountant.DurableStatus, remote datasets
// their sequencer binding, in-memory ones report only the stamp.
type durabilityJSON struct {
	Backend string `json:"backend"`
	Durable bool   `json:"durable"`
	*accountant.DurableStatus
	Remote *accountant.RemoteStatus `json:"remote,omitempty"`
}

func describeDurability(ds *Dataset) durabilityJSON {
	out := durabilityJSON{Backend: ds.LedgerBackend()}
	if st, ok := ds.Durability(); ok {
		out.Durable = true
		out.DurableStatus = &st
	}
	if st, ok := ds.RemoteStatus(); ok {
		// The sequencer fsyncs every admission into its WAL before the
		// ack this client requires, so a remote dataset's accounting is
		// durable too — just not locally.
		out.Durable = true
		out.Remote = &st
	}
	return out
}

func (s *httpServer) budget(w http.ResponseWriter, r *http.Request) {
	ds, err := s.reg.Dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	body := map[string]any{
		"dataset":    ds.Name(),
		"budget":     ds.Budget(),
		"spent":      ds.Spent(),
		"remaining":  ds.Remaining(),
		"ops":        ds.OpCount(),
		"cache":      ds.CacheStats(),
		"durability": describeDurability(ds),
	}
	// The audit trail grows with every admitted op, so after a load run
	// the full report is megabytes. ?ops=N keeps only the N most recent
	// entries (the header still reports the true totals), ?ops=0 omits
	// the report entirely; no parameter preserves the full trail for
	// existing consumers.
	switch capStr := r.URL.Query().Get("ops"); capStr {
	case "":
		body["audit"] = ds.AuditReport()
	case "0":
	default:
		n, err := strconv.Atoi(capStr)
		if err != nil || n < 0 {
			writeErr(w, fmt.Errorf("serve: ops must be a non-negative integer (got %q)", capStr))
			return
		}
		body["audit"] = auditReportTail(ds, n)
	}
	// Same convention as the dataset summary: the field appears only for
	// non-default strategies, keeping default transcripts byte-stable.
	if label := strategyLabel(ds); label != "" {
		body["strategy"] = label
	}
	writeJSON(w, http.StatusOK, body)
}

// auditReportTail renders the ledger report with only the n most recent
// ops (the most relevant under a capped view: the spends that exhausted
// the budget are at the end of the trail).
func auditReportTail(ds *Dataset, n int) string {
	ops := ds.Ops()
	total := len(ops)
	if n >= total {
		return ds.AuditReport()
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "privacy ledger: budget %s, spent %s, %d ops (showing last %d)\n",
		ds.Budget(), ds.Spent(), total, n)
	for _, op := range ops[total-n:] {
		fmt.Fprintf(&b, "  %3d. %-24s %s\n", op.Seq, op.Label, op.Cost)
	}
	return b.String()
}

func (s *httpServer) openSession(w http.ResponseWriter, r *http.Request) {
	ds, err := s.reg.Dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req struct {
		Stream *uint64 `json:"stream"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	if s.opts.MaxSessions > 0 && len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("serve: %d session handles already open (the handler cap); DELETE /v1/sessions/{id} to free one", s.opts.MaxSessions),
			"too-many-sessions")
		return
	}
	var sess *Session
	if req.Stream != nil {
		sess = ds.SessionAt(*req.Stream)
	} else {
		sess = ds.NewSession()
	}
	s.nextID++
	id := s.nextID
	s.sessions[id] = &httpSession{sess: sess}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{
		"session": id,
		"stream":  sess.Stream(),
		"pinned":  sess.Pinned(),
		"dataset": ds.Name(),
	})
}

// sessionID parses the handle id from the path.
func sessionID(r *http.Request) (uint64, error) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: bad session id %q", r.PathValue("id"))
	}
	return id, nil
}

// session resolves the path's handle id to its open session.
func (s *httpServer) session(r *http.Request) (*httpSession, error) {
	id, err := sessionID(r)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	hs, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	return hs, nil
}

func (s *httpServer) closeSession(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Look up and delete in one critical section: of concurrent DELETEs
	// of one handle exactly one finds it.
	s.mu.Lock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		writeErr(w, fmt.Errorf("%w: %d", ErrUnknownSession, id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"closed": id})
}

// query returns the handler of one query kind's route: it resolves the
// handle, decodes the body into the query value, locks the handle, asks
// the session, and writes the answer. The level must be present: every
// query endpoint debits the ledger, so nothing may run against a
// defaulted level.
func (s *httpServer) query(kind int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hs, err := s.session(r)
		if err != nil {
			writeErr(w, err)
			return
		}
		var req queryRequest
		if err := decodeQuery(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		q, err := req.query(kind)
		if err != nil {
			writeErr(w, err)
			return
		}
		hs.mu.Lock()
		defer hs.mu.Unlock()
		sess := hs.sess
		seq := sess.Seq()
		a, hit, err := sess.answer(q)
		if err != nil {
			writeErr(w, err)
			return
		}
		if q.kind == queryKindView {
			hit = nil // a view keeps no encoded body (cache.go)
		}
		respond(w, http.StatusOK, hit, func(b []byte) ([]byte, error) {
			name, stream := sess.Dataset().Name(), sess.Stream()
			switch q.kind {
			case queryKindView:
				return appendLevelResponse(b, name, seq, stream, a.view)
			case queryKindMarginal:
				return appendMarginalResponse(b, name, seq, stream, q.level, q.side.String(), a.marginals)
			}
			return appendTopKResponse(b, name, seq, stream, q.level, q.side.String(), q.k, a.groups), nil
		})
	}
}
