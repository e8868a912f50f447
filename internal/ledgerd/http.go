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

// maxBody bounds request bodies: spends carry short labels.
const maxBody = 1 << 16

// NewHandler returns the sequencer's HTTP front end: the client wire
// protocol (declared in package accountant, wire.go) and, when the
// group has peers, the replication endpoints.
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

// reply writes res, or err mapped onto the wire contract.
func reply(w http.ResponseWriter, res any, err error) {
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// writeErr maps service errors onto the wire contract.
func writeErr(w http.ResponseWriter, err error) {
	status, code := http.StatusBadRequest, accountant.CodeBadRequest
	switch {
	case errors.Is(err, accountant.ErrBudgetExceeded):
		status, code = http.StatusTooManyRequests, accountant.CodeBudgetExceeded
	case errors.Is(err, accountant.ErrBudgetMismatch):
		status, code = http.StatusConflict, accountant.CodeBudgetMismatch
	case errors.Is(err, ErrEpochFenced):
		status, code = http.StatusConflict, accountant.CodeEpochFenced
	case errors.Is(err, ErrNotAttached):
		status, code = http.StatusConflict, accountant.CodeNotAttached
	case errors.Is(err, ErrNotPrimary):
		status, code = http.StatusConflict, accountant.CodeNotPrimary
	case errors.Is(err, ErrNoQuorum):
		status, code = http.StatusServiceUnavailable, accountant.CodeNoQuorum
	case errors.Is(err, ErrClosed):
		status, code = http.StatusServiceUnavailable, accountant.CodeServiceClosed
	case errors.Is(err, ErrBadKey), errors.Is(err, ErrBadOpID), errors.Is(err, errBadBody):
		status, code = http.StatusBadRequest, accountant.CodeBadRequest
	case errors.Is(err, accountant.ErrLedgerFailed),
		errors.Is(err, accountant.ErrLedgerClosed),
		errors.Is(err, accountant.ErrLedgerCorrupt),
		errors.Is(err, accountant.ErrLedgerLocked):
		status, code = http.StatusInternalServerError, accountant.CodeLedgerFailed
	case errors.Is(err, dp.ErrEpsilon), errors.Is(err, dp.ErrDelta):
		status, code = http.StatusBadRequest, accountant.CodeBadRequest
	default:
		// Unclassified failures are server-side: the client must latch,
		// not blame its request.
		status, code = http.StatusInternalServerError, accountant.CodeLedgerFailed
	}
	body := accountant.WireError{Error: err.Error(), Code: code}
	if code == accountant.CodeEpochFenced {
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
	reply(w, res, err)
}

func (h *handler) groupVote(w http.ResponseWriter, r *http.Request) {
	var req VoteRequest
	if err := decode(w, r, maxGroupBody, &req); err != nil {
		writeErr(w, err)
		return
	}
	res, err := h.g.HandleVote(req)
	reply(w, res, err)
}

func (h *handler) groupState(w http.ResponseWriter, r *http.Request) {
	res, err := h.g.HandleState()
	reply(w, res, err)
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

func (h *handler) attach(w http.ResponseWriter, r *http.Request) {
	var req accountant.AttachRequest
	if err := decode(w, r, maxBody, &req); err != nil {
		writeErr(w, err)
		return
	}
	res, err := h.g.Attach(r.PathValue("key"), req.Budget)
	reply(w, res, err)
}

func (h *handler) spend(w http.ResponseWriter, r *http.Request) {
	var req accountant.SpendRequest
	if err := decode(w, r, maxBody, &req); err != nil {
		writeErr(w, err)
		return
	}
	res, err := h.g.Spend(r.PathValue("key"), req.Epoch, req.OpID, req.Label, req.Cost)
	reply(w, res, err)
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	res, err := h.g.Status(r.PathValue("key"))
	reply(w, res, err)
}

func (h *handler) ops(w http.ResponseWriter, r *http.Request) {
	ops, err := h.g.Ops(r.PathValue("key"))
	if err != nil {
		writeErr(w, err)
		return
	}
	res := accountant.OpsResult{Key: r.PathValue("key"), Ops: make([]accountant.WireOp, len(ops))}
	for i, op := range ops {
		res.Ops[i] = accountant.WireOp{Seq: op.Seq, Label: op.Label, Epsilon: op.Cost.Epsilon, Delta: op.Cost.Delta}
	}
	writeJSON(w, http.StatusOK, res)
}
