package accountant

import "repro/internal/dp"

// The sequencer's client wire: the HTTP/JSON bodies internal/ledgerd's
// handler writes and RemoteLedger reads, declared once for both sides.
// The error codes are the contract the client keys its fail-closed
// behavior on.
//
//	GET  /healthz                      {"ok":true,"epoch":...,"ledgers":n,
//	                                    "role":...,"term":t}
//	GET  /readyz                       {"ready":b,"reason":...,"epoch":...}
//	POST /v1/ledgers/{key}/attach      AttachRequest → AttachResult
//	POST /v1/ledgers/{key}/spend       SpendRequest → SpendResult
//	GET  /v1/ledgers/{key}             StatusResult (with the durability panel)
//	GET  /v1/ledgers/{key}/ops         OpsResult (client labels)
//
// Status mapping: 200 admitted/replayed, 429 "budget-exceeded"
// (definitive rejection — spent is unchanged and retrying cannot
// succeed), 409 "epoch-fenced" / "not-attached" / "budget-mismatch" /
// "not-primary" (the writer's view is stale or wrong; a single-address
// client latches fail-closed, a member list walks on), 400 malformed
// requests, 500 "ledger-failed" (the durable log could not admit the
// op; the underlying ledger is latched), 503 "service-closed" /
// "no-quorum" (retryable under the same op ID).

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

// WireError is the uniform error body. Term rides along on group-mode
// epoch-fenced refusals so a fenced sender can adopt the newer term.
type WireError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	Term  uint64 `json:"term,omitempty"`
}

// AttachRequest opens (or re-opens) a key under Budget.
type AttachRequest struct {
	Budget dp.Params `json:"budget"`
}

// AttachResult reports the authoritative ledger state a client pins at
// attach time.
type AttachResult struct {
	Epoch     string    `json:"epoch"`
	Budget    dp.Params `json:"budget"`
	Spent     dp.Params `json:"spent"`
	Remaining dp.Params `json:"remaining"`
	OpCount   int       `json:"ops"`
}

// SpendRequest asks for one admission. OpID is client-unique: a retry
// under the same OpID is re-acked, never re-debited.
type SpendRequest struct {
	Epoch string    `json:"epoch"`
	OpID  string    `json:"op_id"`
	Label string    `json:"label"`
	Cost  dp.Params `json:"cost"`
}

// SpendResult acknowledges one admitted (or replayed) spend.
type SpendResult struct {
	Admitted bool `json:"admitted"`
	// Replayed reports that the op ID was already admitted (a retry of
	// an op whose first ack was lost) and nothing was re-debited.
	Replayed bool `json:"replayed,omitempty"`
	// Seq is the admitted op's 1-based ledger sequence.
	Seq       int       `json:"seq"`
	Spent     dp.Params `json:"spent"`
	Remaining dp.Params `json:"remaining"`
	OpCount   int       `json:"ops"`
}

// StatusResult reports one attached ledger's state.
type StatusResult struct {
	Key       string        `json:"key"`
	Epoch     string        `json:"epoch"`
	Budget    dp.Params     `json:"budget"`
	Spent     dp.Params     `json:"spent"`
	Remaining dp.Params     `json:"remaining"`
	OpCount   int           `json:"ops"`
	Durable   DurableStatus `json:"durability"`
}

// OpsResult is a key's audit trail, labels as the client spent them.
type OpsResult struct {
	Key string   `json:"key"`
	Ops []WireOp `json:"ops"`
}

// WireOp is one audit-trail entry, its cost flattened.
type WireOp struct {
	Seq     int     `json:"seq"`
	Label   string  `json:"label"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}
