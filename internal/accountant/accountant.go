// Package accountant tracks differential-privacy budget expenditure and
// implements the composition theorems the disclosure pipeline relies on.
//
// The paper's multi-level release runs one specialization phase and one
// noise-injection phase per group level; whether those consume independent
// budgets (the paper's per-level reading) or compose into one global εg is
// an evaluation knob (gdpbench's ablation A1). The Ledger gives every
// pipeline run an auditable record of what was spent where, and refuses
// operations that would exceed the configured total.
//
// Three Ledger backends share that contract: MemLedger, DurableLedger (a
// WAL, durable.go) and RemoteLedger (a client of the
// ledgerd sequencer, remote.go). Everything that persists ledger frames
// — DurableLedger's WAL here, the sequencer group's replicated log in
// internal/ledgerd — does so through one crash-safe file type, Log
// (log.go), and every small state file is published by WriteFileAtomic.
package accountant

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/dp"
)

// Errors returned by the ledger and the composition helpers.
var (
	ErrBudgetExceeded = errors.New("accountant: operation would exceed the privacy budget")
	ErrNoOps          = errors.New("accountant: composition over zero operations")
	ErrBadSplit       = errors.New("accountant: invalid budget split")
)

// Op is one recorded privacy expenditure.
type Op struct {
	// Seq is the 1-based order in which the operation was admitted.
	Seq int
	// Label identifies the operation for audit ("phase1/level3" etc.).
	Label string
	// Cost is the (ε, δ) consumed.
	Cost dp.Params
}

// Ledger is the privacy-expenditure accounting contract: a fixed total
// (ε, δ) budget debited under basic sequential composition, with an
// auditable admission-ordered trail. Spend and SpendBytes either admit
// an operation in full or reject it with ErrBudgetExceeded (or, for
// durable implementations, an I/O failure) having changed nothing — the
// caller must not release any noisy bytes for an op that was not
// admitted. Implementations are safe for concurrent use.
//
// MemLedger is the in-memory implementation (process lifetime only);
// DurableLedger persists every admission to an append-only WAL before
// reporting it admitted, so spends survive crashes and restarts. A
// future consensus-backed implementation can share budgets across
// replicas behind the same interface.
type Ledger interface {
	// Budget returns the configured total.
	Budget() dp.Params
	// Spend admits an operation or returns ErrBudgetExceeded (spending
	// nothing) if it would exceed the total budget.
	Spend(label string, cost dp.Params) error
	// SpendBytes is Spend with the label passed as reusable bytes — the
	// zero-alloc form for hot paths. The bytes are copied before return.
	SpendBytes(label []byte, cost dp.Params) error
	// Spent returns the basic-composition total of admitted operations.
	Spent() dp.Params
	// Remaining returns the budget left, clamped at zero per component.
	Remaining() dp.Params
	// OpCount returns the number of admitted operations.
	OpCount() int
	// Ops returns a copy of the audit trail in admission order.
	Ops() []Op
	// AuditReport renders the trail as a human-readable string.
	AuditReport() string
}

var (
	_ Ledger = (*MemLedger)(nil)
	_ Ledger = (*DurableLedger)(nil)
)

// opRec is the internal audit-trail entry: the label lives as a span of
// the ledger's shared label arena instead of an individual string, so
// admitting an op costs no per-op string allocation — the serving hot
// path debits the ledger on every query, and its labels arrive as bytes
// assembled in the caller's scratch (SpendBytes). Ops() materializes the
// exported Op shape on demand.
type opRec struct {
	labelOff int
	labelLen int
	cost     dp.Params
}

// MemLedger tracks expenditures against a fixed total budget under basic
// (sequential) composition, in memory only: state does not survive the
// process (use DurableLedger where spends must outlive a restart). It is
// safe for concurrent use: pipeline phases may spend from worker
// goroutines.
type MemLedger struct {
	mu     sync.Mutex
	budget dp.Params
	ops    []opRec
	arena  []byte // concatenated op labels, indexed by opRec spans
	eps    float64
	delta  float64
}

// NewLedger returns an in-memory ledger with the given total budget.
func NewLedger(budget dp.Params) (*MemLedger, error) {
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	return &MemLedger{budget: budget}, nil
}

// Budget returns the configured total.
func (l *MemLedger) Budget() dp.Params { return l.budget }

// Spend admits an operation with the given cost, or returns
// ErrBudgetExceeded (spending nothing) if basic composition of all admitted
// operations would exceed the total budget. A tiny relative tolerance
// absorbs floating-point drift so that n spends of total/n always fit.
func (l *MemLedger) Spend(label string, cost dp.Params) error {
	// The string→[]byte conversion allocates, which is fine off the hot
	// path; per-query spenders assemble bytes and call SpendBytes.
	return l.SpendBytes([]byte(label), cost)
}

// SpendBytes is Spend with the label passed as bytes — the zero-alloc
// form for hot paths that assemble labels in a reusable scratch buffer.
// The bytes are copied into the ledger's arena before returning; the
// caller may reuse label immediately.
func (l *MemLedger) SpendBytes(label []byte, cost dp.Params) error {
	if err := cost.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.check(cost); err != nil {
		return fmt.Errorf("%w (label %q)", err, label)
	}
	l.commit(label, cost)
	return nil
}

// Check reports whether the budget could admit cost right now, spending
// nothing — the pre-admission probe a replicated sequencer runs before
// appending a spend to its log (the commit happens when the replicated
// entry applies, not here).
func (l *MemLedger) Check(cost dp.Params) error {
	if err := cost.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.check(cost)
}

// check reports whether the budget can admit cost on top of the
// committed ops. Callers hold l.mu.
func (l *MemLedger) check(cost dp.Params) error {
	return checkSpend(l.budget, dp.Params{Epsilon: l.eps, Delta: l.delta}, cost)
}

// checkSpend reports whether budget can admit cost on top of spent,
// mutating nothing: MemLedger checks its committed total, DurableLedger
// its admitted one, which also counts the ops not yet durable. Only a
// RELATIVE tolerance absorbs floating-point drift (so n spends of
// total/n always fit); there is deliberately no absolute slack, because
// a strictly zero-delta budget is a pure-ε guarantee and must reject ANY
// op with Delta > 0, however tiny.
func checkSpend(budget, spent, cost dp.Params) error {
	const tol = 1e-9
	if spent.Epsilon+cost.Epsilon > budget.Epsilon*(1+tol) ||
		spent.Delta+cost.Delta > budget.Delta*(1+tol) {
		return fmt.Errorf("%w: spent %s + requested %s > budget %s",
			ErrBudgetExceeded, spent, cost, budget)
	}
	return nil
}

// commit records a checked op. Callers hold l.mu and have checked
// cost (replay of a durable trail recommits historical
// ops without rechecking — their admission is already fact).
func (l *MemLedger) commit(label []byte, cost dp.Params) {
	l.eps += cost.Epsilon
	l.delta += cost.Delta
	l.ops = append(l.ops, opRec{labelOff: len(l.arena), labelLen: len(label), cost: cost})
	l.arena = append(l.arena, label...)
}

// Spent returns the basic-composition total of admitted operations.
func (l *MemLedger) Spent() dp.Params {
	l.mu.Lock()
	defer l.mu.Unlock()
	return dp.Params{Epsilon: l.eps, Delta: l.delta}
}

// Remaining returns the budget left under basic composition. Components
// are clamped at zero.
func (l *MemLedger) Remaining() dp.Params {
	l.mu.Lock()
	defer l.mu.Unlock()
	return dp.Params{
		Epsilon: math.Max(0, l.budget.Epsilon-l.eps),
		Delta:   math.Max(0, l.budget.Delta-l.delta),
	}
}

// OpCount returns the number of admitted operations without
// materializing the audit trail (Ops allocates one label string per op;
// callers that only need the count — status endpoints polled in a loop —
// should use this).
func (l *MemLedger) OpCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// Ops returns a copy of the audit trail in admission order. The Op
// labels are materialized from the arena here, at audit time, rather
// than allocated per admission.
func (l *MemLedger) Ops() []Op {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Op, len(l.ops))
	for i, rec := range l.ops {
		out[i] = Op{
			Seq:   i + 1,
			Label: string(l.arena[rec.labelOff : rec.labelOff+rec.labelLen]),
			Cost:  rec.cost,
		}
	}
	return out
}

// AuditReport renders the trail as a human-readable multi-line string.
func (l *MemLedger) AuditReport() string {
	ops := l.Ops()
	spent := l.Spent()
	var b strings.Builder
	fmt.Fprintf(&b, "privacy ledger: budget %s, spent %s, %d ops\n", l.budget, spent, len(ops))
	for _, op := range ops {
		fmt.Fprintf(&b, "  %3d. %-24s %s\n", op.Seq, op.Label, op.Cost)
	}
	return b.String()
}

// ComposeBasic returns the basic sequential composition of the given
// costs: ε and δ add.
func ComposeBasic(costs []dp.Params) (dp.Params, error) {
	if len(costs) == 0 {
		return dp.Params{}, ErrNoOps
	}
	var out dp.Params
	for i, c := range costs {
		if err := c.Validate(); err != nil {
			return dp.Params{}, fmt.Errorf("cost %d: %w", i, err)
		}
		out.Epsilon += c.Epsilon
		out.Delta += c.Delta
	}
	return out, nil
}

// ComposeParallel returns the parallel composition of the given costs:
// mechanisms operating on disjoint data cost the maximum, not the sum.
// The paper's per-level releases to different privilege tiers are modeled
// this way in the "paper mode" pipeline.
func ComposeParallel(costs []dp.Params) (dp.Params, error) {
	if len(costs) == 0 {
		return dp.Params{}, ErrNoOps
	}
	var out dp.Params
	for i, c := range costs {
		if err := c.Validate(); err != nil {
			return dp.Params{}, fmt.Errorf("cost %d: %w", i, err)
		}
		out.Epsilon = math.Max(out.Epsilon, c.Epsilon)
		out.Delta = math.Max(out.Delta, c.Delta)
	}
	return out, nil
}

// ComposeAdvanced returns the k-fold advanced composition (Dwork–Roth,
// Theorem 3.20) of k adaptive invocations of an (ε, δ)-DP mechanism with
// slack δ':
//
//	ε_total = √(2k ln(1/δ'))·ε + k·ε·(e^ε − 1)
//	δ_total = k·δ + δ'
func ComposeAdvanced(cost dp.Params, k int, deltaSlack float64) (dp.Params, error) {
	if err := cost.Validate(); err != nil {
		return dp.Params{}, err
	}
	if k <= 0 {
		return dp.Params{}, fmt.Errorf("accountant: k must be positive (got %d)", k)
	}
	if !(deltaSlack > 0 && deltaSlack < 1) {
		return dp.Params{}, fmt.Errorf("accountant: delta slack must be in (0,1) (got %v)", deltaSlack)
	}
	kf := float64(k)
	eps := math.Sqrt(2*kf*math.Log(1/deltaSlack))*cost.Epsilon +
		kf*cost.Epsilon*(math.Expm1(cost.Epsilon))
	return dp.Params{Epsilon: eps, Delta: kf*cost.Delta + deltaSlack}, nil
}

// AdvancedPerQueryEpsilon inverts ComposeAdvanced: it returns the largest
// per-query ε such that k queries compose (with slack δ') to at most
// epsTotal. Solved by bisection; useful when splitting a global budget
// across levels under advanced composition (ablation A1).
func AdvancedPerQueryEpsilon(epsTotal float64, k int, deltaSlack float64) (float64, error) {
	if !(epsTotal > 0) || math.IsNaN(epsTotal) || math.IsInf(epsTotal, 0) {
		return 0, fmt.Errorf("accountant: total epsilon must be > 0 (got %v)", epsTotal)
	}
	if k <= 0 {
		return 0, fmt.Errorf("accountant: k must be positive (got %d)", k)
	}
	if !(deltaSlack > 0 && deltaSlack < 1) {
		return 0, fmt.Errorf("accountant: delta slack must be in (0,1) (got %v)", deltaSlack)
	}
	total := func(eps float64) float64 {
		kf := float64(k)
		return math.Sqrt(2*kf*math.Log(1/deltaSlack))*eps + kf*eps*math.Expm1(eps)
	}
	lo, hi := 0.0, epsTotal
	for total(hi) < epsTotal {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if total(mid) > epsTotal {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, nil
}

// UniformSplitter gives every release total/n.
type UniformSplitter struct{}

// Split returns n per-release budgets whose basic composition does not
// exceed total.
func (UniformSplitter) Split(total dp.Params, n int) ([]dp.Params, error) {
	if err := total.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadSplit, n)
	}
	out := make([]dp.Params, n)
	for i := range out {
		out[i] = dp.Params{Epsilon: total.Epsilon / float64(n), Delta: total.Delta / float64(n)}
	}
	return out, nil
}
