package ledgerd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/accountant"
	"repro/internal/dp"
)

// HTTP/JSON wire protocol of the sequencer. accountant.RemoteLedger is
// the client; the codes below are the contract it keys its fail-closed
// behavior on.
//
//	GET  /healthz                      {"ok":true,"epoch":...,"ledgers":n,
//	                                    "role":...,"term":t}
//	GET  /readyz                       {"ready":b,"reason":...,"epoch":...}
//	POST /v1/ledgers/{key}/attach      {"budget":{"epsilon":e,"delta":d}}
//	POST /v1/ledgers/{key}/spend       {"epoch":...,"op_id":...,"label":...,
//	                                    "cost":{"epsilon":e,"delta":d}}
//	GET  /v1/ledgers/{key}             status + durability panel
//	GET  /v1/ledgers/{key}/ops         audit trail (client labels)
//
// Status mapping: 200 admitted/replayed, 429 "budget-exceeded"
// (definitive rejection — spent is unchanged and retrying cannot
// succeed), 409 "epoch-fenced" / "not-attached" / "budget-mismatch"
// (the writer's view is stale or wrong; it must latch fail-closed),
// 400 malformed requests, 500 "ledger-failed" (the durable log could
// not admit the op; the underlying ledger is latched), 503
// "service-closed".

// maxBody bounds request bodies: spends carry short labels.
const maxBody = 1 << 16

// Wire error codes.
const (
	CodeBudgetExceeded = "budget-exceeded"
	CodeBudgetMismatch = "budget-mismatch"
	CodeEpochFenced    = "epoch-fenced"
	CodeNotAttached    = "not-attached"
	CodeBadRequest     = "bad-request"
	CodeLedgerFailed   = "ledger-failed"
	CodeServiceClosed  = "service-closed"
	// Group-mode codes: a follower refuses client ops (the multi-address
	// client walks the member list), and a primary without a majority
	// refuses to admit (503 — retryable under the same op ID).
	CodeNotPrimary = "not-primary"
	CodeNoQuorum   = "no-quorum"
)

// budgetWire is the (ε, δ) wire shape.
type budgetWire struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

func toWire(p dp.Params) budgetWire    { return budgetWire{Epsilon: p.Epsilon, Delta: p.Delta} }
func (b budgetWire) params() dp.Params { return dp.Params{Epsilon: b.Epsilon, Delta: b.Delta} }

// errorWire is the uniform error body. Term rides along on group-mode
// epoch-fenced refusals so a fenced sender can adopt the newer term.
type errorWire struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	Term  uint64 `json:"term,omitempty"`
}

// NewHandler returns the sequencer's HTTP front end: the client wire
// protocol above and, when the group has peers, the replication
// endpoints.
//
//	POST /v1/group/append   replication stream (primary → follower)
//	POST /v1/group/vote     durable term write (candidate → voter)
//	GET  /v1/group/state    durable position (candidate reads a majority)
//	GET  /v1/group/status   operator panel
//	POST /v1/group/promote  manual failover (operator runbook)
func NewHandler(g *Group) http.Handler {
	h := &handler{g: g}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /readyz", h.readyz)
	mux.HandleFunc("POST /v1/ledgers/{key}/attach", h.attach)
	mux.HandleFunc("POST /v1/ledgers/{key}/spend", h.spend)
	mux.HandleFunc("GET /v1/ledgers/{key}", h.status)
	mux.HandleFunc("GET /v1/ledgers/{key}/ops", h.ops)
	if len(g.opts.Peers) > 0 {
		mux.HandleFunc("POST /v1/group/append", h.groupAppend)
		mux.HandleFunc("POST /v1/group/vote", h.groupVote)
		mux.HandleFunc("GET /v1/group/state", h.groupState)
		mux.HandleFunc("GET /v1/group/status", h.groupStatus)
		mux.HandleFunc("POST /v1/group/promote", h.groupPromote)
	}
	return mux
}

type handler struct{ g *Group }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps service errors onto the wire contract.
func writeErr(w http.ResponseWriter, err error) {
	status, code := http.StatusBadRequest, CodeBadRequest
	switch {
	case errors.Is(err, accountant.ErrBudgetExceeded):
		status, code = http.StatusTooManyRequests, CodeBudgetExceeded
	case errors.Is(err, accountant.ErrBudgetMismatch):
		status, code = http.StatusConflict, CodeBudgetMismatch
	case errors.Is(err, ErrEpochFenced):
		status, code = http.StatusConflict, CodeEpochFenced
	case errors.Is(err, ErrNotAttached):
		status, code = http.StatusConflict, CodeNotAttached
	case errors.Is(err, ErrNotPrimary):
		status, code = http.StatusConflict, CodeNotPrimary
	case errors.Is(err, ErrNoQuorum):
		status, code = http.StatusServiceUnavailable, CodeNoQuorum
	case errors.Is(err, ErrClosed):
		status, code = http.StatusServiceUnavailable, CodeServiceClosed
	case errors.Is(err, ErrBadKey), errors.Is(err, ErrBadOpID), errors.Is(err, errBadBody):
		status, code = http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, accountant.ErrLedgerFailed),
		errors.Is(err, accountant.ErrLedgerClosed),
		errors.Is(err, accountant.ErrLedgerCorrupt),
		errors.Is(err, accountant.ErrLedgerLocked):
		status, code = http.StatusInternalServerError, CodeLedgerFailed
	case errors.Is(err, dp.ErrEpsilon), errors.Is(err, dp.ErrDelta):
		status, code = http.StatusBadRequest, CodeBadRequest
	default:
		// Unclassified failures are server-side: the client must latch,
		// not blame its request.
		status, code = http.StatusInternalServerError, CodeLedgerFailed
	}
	body := errorWire{Error: err.Error(), Code: code}
	if code == CodeEpochFenced {
		var fe *fencedError
		if errors.As(err, &fe) {
			body.Term = fe.term
		}
	}
	writeJSON(w, status, body)
}

// errBadBody marks malformed request bodies: the client's fault, 400.
var errBadBody = errors.New("ledgerd: bad request body")

// decode parses a JSON body of at most limit bytes (maxBody or
// maxGroupBody), rejecting unknown fields and trailing data — a
// malformed spend or replication batch must fail up front, never run as
// whatever its prefix happens to parse as.
func decode(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		return fmt.Errorf("%w: reading: %v", errBadBody, err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: parsing: %v", errBadBody, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after JSON value", errBadBody)
	}
	return nil
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	st := h.g.GroupStatus()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":      true,
		"epoch":   st.Epoch,
		"ledgers": st.Keys,
		"role":    st.Role,
		"term":    st.Term,
	})
}

// readyz is the load-balancer / fail-fast probe: 200 only when this
// member can take part in admissions right now (primary: whole log
// committed; follower: live leader). healthz stays a pure liveness
// signal.
func (h *handler) readyz(w http.ResponseWriter, r *http.Request) {
	ready, reason := h.g.Ready()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "reason": reason, "epoch": h.g.Epoch()})
}

// maxGroupBody bounds replication bodies: a catch-up batch of up to 512
// framed entries with short labels fits comfortably.
const maxGroupBody = 1 << 22

func (h *handler) groupAppend(w http.ResponseWriter, r *http.Request) {
	var req AppendRequest
	if err := decode(w, r, maxGroupBody, &req); err != nil {
		writeErr(w, err)
		return
	}
	res, err := h.g.HandleAppend(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (h *handler) groupVote(w http.ResponseWriter, r *http.Request) {
	var req VoteRequest
	if err := decode(w, r, maxGroupBody, &req); err != nil {
		writeErr(w, err)
		return
	}
	res, err := h.g.HandleVote(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (h *handler) groupState(w http.ResponseWriter, r *http.Request) {
	res, err := h.g.HandleState()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (h *handler) groupStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.g.GroupStatus())
}

func (h *handler) groupPromote(w http.ResponseWriter, r *http.Request) {
	if err := h.g.Promote(); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, h.g.GroupStatus())
}

// attachWire is the attach request/response pair.
type attachRequest struct {
	Budget budgetWire `json:"budget"`
}

type attachResponse struct {
	Epoch     string     `json:"epoch"`
	Budget    budgetWire `json:"budget"`
	Spent     budgetWire `json:"spent"`
	Remaining budgetWire `json:"remaining"`
	Ops       int        `json:"ops"`
}

func (h *handler) attach(w http.ResponseWriter, r *http.Request) {
	var req attachRequest
	if err := decode(w, r, maxBody, &req); err != nil {
		writeErr(w, err)
		return
	}
	res, err := h.g.Attach(r.PathValue("key"), req.Budget.params())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, attachResponse{
		Epoch:     res.Epoch,
		Budget:    toWire(res.Budget),
		Spent:     toWire(res.Spent),
		Remaining: toWire(res.Remaining),
		Ops:       res.OpCount,
	})
}

type spendRequest struct {
	Epoch string     `json:"epoch"`
	OpID  string     `json:"op_id"`
	Label string     `json:"label"`
	Cost  budgetWire `json:"cost"`
}

type spendResponse struct {
	Admitted  bool       `json:"admitted"`
	Replayed  bool       `json:"replayed,omitempty"`
	Seq       int        `json:"seq"`
	Spent     budgetWire `json:"spent"`
	Remaining budgetWire `json:"remaining"`
	Ops       int        `json:"ops"`
}

func (h *handler) spend(w http.ResponseWriter, r *http.Request) {
	var req spendRequest
	if err := decode(w, r, maxBody, &req); err != nil {
		writeErr(w, err)
		return
	}
	res, err := h.g.Spend(r.PathValue("key"), req.Epoch, req.OpID, req.Label, req.Cost.params())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, spendResponse{
		Admitted:  true,
		Replayed:  res.Replayed,
		Seq:       res.Seq,
		Spent:     toWire(res.Spent),
		Remaining: toWire(res.Remaining),
		Ops:       res.OpCount,
	})
}

type statusResponse struct {
	Key        string                   `json:"key"`
	Epoch      string                   `json:"epoch"`
	Budget     budgetWire               `json:"budget"`
	Spent      budgetWire               `json:"spent"`
	Remaining  budgetWire               `json:"remaining"`
	Ops        int                      `json:"ops"`
	Durability accountant.DurableStatus `json:"durability"`
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	st, err := h.g.Status(r.PathValue("key"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, statusResponse{
		Key:        st.Key,
		Epoch:      st.Epoch,
		Budget:     toWire(st.Budget),
		Spent:      toWire(st.Spent),
		Remaining:  toWire(st.Remaining),
		Ops:        st.OpCount,
		Durability: st.Durable,
	})
}

// opWire is one audit-trail entry on the wire.
type opWire struct {
	Seq     int     `json:"seq"`
	Label   string  `json:"label"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

func (h *handler) ops(w http.ResponseWriter, r *http.Request) {
	ops, err := h.g.Ops(r.PathValue("key"))
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]opWire, len(ops))
	for i, op := range ops {
		out[i] = opWire{Seq: op.Seq, Label: op.Label, Epsilon: op.Cost.Epsilon, Delta: op.Cost.Delta}
	}
	writeJSON(w, http.StatusOK, map[string]any{"key": r.PathValue("key"), "ops": out})
}
