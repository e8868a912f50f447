// Package ledgertest is the shared conformance suite every
// accountant.Ledger implementation must pass — MemLedger,
// DurableLedger, and the sequencer-backed RemoteLedger run the same
// checks, so "a ledger is a ledger" holds whichever backend a
// deployment picks. The properties are the ones the serving layer's
// privacy argument leans on:
//
//   - admission exactness: admitted ops appear in the trail in order,
//     spent composes to exactly their sum, and the first over-budget
//     spend is rejected with ErrBudgetExceeded having changed nothing,
//     also when it overshoots by a relative 1e-6 in ε or in δ alone;
//   - zero-delta rejection: a δ=0 budget admits no op with any δ > 0,
//     however small — there is no absolute slack to hide under;
//   - concurrent drain: racing spenders admit exactly the budgeted
//     number of ops, never one more, and every loser sees
//     ErrBudgetExceeded;
//   - fail-closed latching (backends with a failure mode): after the
//     backend fails, every spend errors and the observed spent never
//     decreases — a broken ledger refuses, it never forgets — and a
//     spend the budget alone would refuse reports ErrLedgerFailed.
package ledgertest

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dp"
)

// Factory adapts one Ledger implementation to the suite.
type Factory struct {
	// New opens a fresh, empty ledger with the given budget.
	New func(t *testing.T, budget dp.Params) accountant.Ledger
	// Fail, if non-nil, forces the backend underneath l into its
	// failure mode (a WAL that stops syncing, a sequencer that stops
	// answering). Backends without a failure mode (MemLedger) leave it
	// nil and skip the latching check.
	Fail func(t *testing.T, l accountant.Ledger)
}

// Run executes the conformance suite against the factory's ledgers.
func Run(t *testing.T, f Factory) {
	t.Run("AdmissionExactness", func(t *testing.T) { testAdmissionExactness(t, f) })
	t.Run("ZeroDeltaRejection", func(t *testing.T) { testZeroDeltaRejection(t, f) })
	t.Run("ConcurrentDrain", func(t *testing.T) { testConcurrentDrain(t, f) })
	if f.Fail != nil {
		t.Run("FailClosedLatching", func(t *testing.T) { testFailClosedLatching(t, f) })
	}
}

// closeTol is the acceptance band for spent-vs-budget comparisons: the
// admission check itself allows relative error 1e-9, so the suite must
// not demand bit-exact float sums.
const closeTol = 1e-9

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= closeTol*math.Max(math.Abs(want), 1)
}

func testAdmissionExactness(t *testing.T, f Factory) {
	budget := dp.Params{Epsilon: 1.0, Delta: 1e-4}
	per := dp.Params{Epsilon: 0.25, Delta: 2.5e-5}
	l := f.New(t, budget)
	for i := 0; i < 4; i++ {
		if err := l.Spend(fmt.Sprintf("op-%d", i), per); err != nil {
			t.Fatalf("spend %d within budget: %v", i, err)
		}
	}
	if err := l.Spend("over", per); !errors.Is(err, accountant.ErrBudgetExceeded) {
		t.Fatalf("over-budget spend: got %v, want ErrBudgetExceeded", err)
	}
	// The tolerance absorbs float drift, never a real overshoot.
	for _, over := range []dp.Params{{Epsilon: 1e-6 * budget.Epsilon}, {Epsilon: 1e-12, Delta: 1e-6 * budget.Delta}} {
		if err := l.Spend("over-1e-6", over); !errors.Is(err, accountant.ErrBudgetExceeded) {
			t.Fatalf("spend %v past a full budget: got %v, want ErrBudgetExceeded", over, err)
		}
	}
	if got := l.OpCount(); got != 4 {
		t.Fatalf("op count after rejection: got %d, want 4 (the rejected op must not appear)", got)
	}
	spent := l.Spent()
	if !closeTo(spent.Epsilon, budget.Epsilon) || !closeTo(spent.Delta, budget.Delta) {
		t.Fatalf("spent %v, want the full budget %v", spent, budget)
	}
	rem := l.Remaining()
	if !closeTo(rem.Epsilon, 0) || !closeTo(rem.Delta, 0) {
		t.Fatalf("remaining %v, want ~zero", rem)
	}
	ops := l.Ops()
	if len(ops) != 4 {
		t.Fatalf("trail length %d, want 4", len(ops))
	}
	for i, op := range ops {
		if want := fmt.Sprintf("op-%d", i); op.Label != want {
			t.Errorf("op %d label %q, want %q (trail must preserve labels and order)", i, op.Label, want)
		}
		if op.Seq != i+1 {
			t.Errorf("op %d seq %d, want %d (seqs are 1-based admission order)", i, op.Seq, i+1)
		}
		if op.Cost != per {
			t.Errorf("op %d cost %v, want %v", i, op.Cost, per)
		}
	}
}

func testZeroDeltaRejection(t *testing.T, f Factory) {
	l := f.New(t, dp.Params{Epsilon: 1.0})
	// A pure-ε budget has NO δ to give: any positive δ must be refused,
	// no matter how small — an absolute tolerance here would let an
	// adversary mine unbounded δ in dust-sized increments.
	if err := l.Spend("dust", dp.Params{Epsilon: 0.1, Delta: 1e-12}); !errors.Is(err, accountant.ErrBudgetExceeded) {
		t.Fatalf("δ-dust spend against δ=0 budget: got %v, want ErrBudgetExceeded", err)
	}
	if got := l.OpCount(); got != 0 {
		t.Fatalf("op count after rejection: got %d, want 0", got)
	}
	if err := l.Spend("pure", dp.Params{Epsilon: 0.1}); err != nil {
		t.Fatalf("pure-ε spend against δ=0 budget: %v", err)
	}
}

func testConcurrentDrain(t *testing.T, f Factory) {
	const (
		slots    = 20
		spenders = 8
		tries    = 10 // 8×10 = 80 attempts racing for 20 slots
	)
	budget := dp.Params{Epsilon: 1.0, Delta: 1e-4}
	per := dp.Params{Epsilon: budget.Epsilon / slots, Delta: budget.Delta / slots}
	l := f.New(t, budget)
	var (
		wg     sync.WaitGroup
		admits int
		mu     sync.Mutex
	)
	for g := 0; g < spenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < tries; i++ {
				err := l.Spend(fmt.Sprintf("g%d/i%d", g, i), per)
				switch {
				case err == nil:
					mu.Lock()
					admits++
					mu.Unlock()
				case errors.Is(err, accountant.ErrBudgetExceeded):
					// the only acceptable refusal while draining
				default:
					t.Errorf("spend g%d/i%d: unexpected error %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if admits != slots {
		t.Fatalf("concurrent drain admitted %d ops, want exactly %d (over-admission breaks the privacy bound, under-admission wastes budget)", admits, slots)
	}
	if got := l.OpCount(); got != slots {
		t.Fatalf("trail has %d ops, want %d", got, slots)
	}
	if err := l.Spend("post-drain", per); !errors.Is(err, accountant.ErrBudgetExceeded) {
		t.Fatalf("spend after drain: got %v, want ErrBudgetExceeded", err)
	}
	spent := l.Spent()
	if !closeTo(spent.Epsilon, budget.Epsilon) || !closeTo(spent.Delta, budget.Delta) {
		t.Fatalf("drained spent %v, want the full budget %v", spent, budget)
	}
}

func testFailClosedLatching(t *testing.T, f Factory) {
	budget := dp.Params{Epsilon: 1.0, Delta: 1e-4}
	per := dp.Params{Epsilon: 0.1, Delta: 1e-5}
	l := f.New(t, budget)
	if err := l.Spend("healthy", per); err != nil {
		t.Fatalf("spend before failure: %v", err)
	}
	before := l.Spent()
	f.Fail(t, l)
	if err := l.Spend("after-failure", per); err == nil {
		t.Fatal("spend after backend failure succeeded; a broken ledger must refuse")
	}
	// The latch must hold: every later spend keeps failing, budget
	// exhaustion does not overrule a broken backend.
	for i := 0; i < 3; i++ {
		if err := l.Spend(fmt.Sprintf("latched-%d", i), per); err == nil {
			t.Fatalf("spend %d after latch succeeded", i)
		}
	}
	if err := l.Spend("latched-over", dp.Params{Epsilon: 2 * budget.Epsilon, Delta: 2 * budget.Delta}); !errors.Is(err, accountant.ErrLedgerFailed) {
		t.Fatalf("over-budget spend after latch: got %v, want ErrLedgerFailed", err)
	}
	// Observed spent never decreases across the failure: a broken
	// ledger may report stale-but-admitted state, never less.
	after := l.Spent()
	if after.Epsilon < before.Epsilon-closeTol || after.Delta < before.Delta-closeTol {
		t.Fatalf("spent decreased across failure: %v -> %v", before, after)
	}
}
