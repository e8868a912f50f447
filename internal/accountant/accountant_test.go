package accountant

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/dp"
)

func TestNewLedgerValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewLedger(dp.Params{Epsilon: 0}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewLedger(dp.Params{Epsilon: 1, Delta: 1e-5}); err != nil {
		t.Errorf("valid budget rejected: %v", err)
	}
}

func TestLedgerSpendAndRemaining(t *testing.T) {
	t.Parallel()
	l, err := NewLedger(dp.Params{Epsilon: 1, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("phase1", dp.Params{Epsilon: 0.4, Delta: 4e-6}); err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("phase2", dp.Params{Epsilon: 0.6, Delta: 6e-6}); err != nil {
		t.Fatal(err)
	}
	spent := l.Spent()
	if math.Abs(spent.Epsilon-1) > 1e-12 || math.Abs(spent.Delta-1e-5) > 1e-18 {
		t.Errorf("Spent = %v", spent)
	}
	rem := l.Remaining()
	if rem.Epsilon > 1e-9 || rem.Delta > 1e-15 {
		t.Errorf("Remaining = %v, want about zero", rem)
	}
}

func TestLedgerRejectsOverspend(t *testing.T) {
	t.Parallel()
	l, err := NewLedger(dp.Params{Epsilon: 1, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("ok", dp.Params{Epsilon: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("too much", dp.Params{Epsilon: 0.2}); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("overspend error = %v", err)
	}
	// A failed spend must not consume anything.
	if got := l.Spent().Epsilon; math.Abs(got-0.9) > 1e-12 {
		t.Errorf("failed spend mutated ledger: %v", got)
	}
	// Delta overspend is also rejected.
	if err := l.Spend("delta heavy", dp.Params{Epsilon: 0.05, Delta: 1e-5}); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("delta overspend error = %v", err)
	}
}

func TestLedgerRejectsInvalidCost(t *testing.T) {
	t.Parallel()
	l, err := NewLedger(dp.Params{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("bad", dp.Params{Epsilon: -1}); err == nil {
		t.Error("negative cost accepted")
	}
}

func TestLedgerUniformSpendsExactlyFit(t *testing.T) {
	t.Parallel()
	// 9 spends of budget/9 must all fit despite floating-point division.
	l, err := NewLedger(dp.Params{Epsilon: 0.999, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	share := dp.Params{Epsilon: 0.999 / 9, Delta: 1e-5 / 9}
	for i := 0; i < 9; i++ {
		if err := l.Spend("level", share); err != nil {
			t.Fatalf("share %d rejected: %v", i, err)
		}
	}
}

func TestLedgerConcurrentSpend(t *testing.T) {
	t.Parallel()
	l, err := NewLedger(dp.Params{Epsilon: 100})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers = 16
	const perWorker = 50
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := l.Spend("w", dp.Params{Epsilon: 0.1}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	want := workers * perWorker * 0.1
	if got := l.Spent().Epsilon; math.Abs(got-want) > 1e-6 {
		t.Errorf("Spent = %v, want %v", got, want)
	}
	if got := len(l.Ops()); got != workers*perWorker {
		t.Errorf("ops = %d, want %d", got, workers*perWorker)
	}
}

func TestOpsAreCopies(t *testing.T) {
	t.Parallel()
	l, err := NewLedger(dp.Params{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("a", dp.Params{Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	ops := l.Ops()
	ops[0].Label = "mutated"
	if l.Ops()[0].Label != "a" {
		t.Error("Ops returned aliased storage")
	}
}

func TestAuditReport(t *testing.T) {
	t.Parallel()
	l, err := NewLedger(dp.Params{Epsilon: 1, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Spend("phase1/split", dp.Params{Epsilon: 0.25})
	_ = l.Spend("phase2/noise", dp.Params{Epsilon: 0.5, Delta: 1e-5})
	report := l.AuditReport()
	for _, want := range []string{"phase1/split", "phase2/noise", "2 ops"} {
		if !strings.Contains(report, want) {
			t.Errorf("report %q missing %q", report, want)
		}
	}
}

func TestComposeBasic(t *testing.T) {
	t.Parallel()
	got, err := ComposeBasic([]dp.Params{
		{Epsilon: 0.1, Delta: 1e-6},
		{Epsilon: 0.2, Delta: 2e-6},
		{Epsilon: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Epsilon-0.6) > 1e-12 || math.Abs(got.Delta-3e-6) > 1e-18 {
		t.Errorf("ComposeBasic = %v", got)
	}
	if _, err := ComposeBasic(nil); !errors.Is(err, ErrNoOps) {
		t.Errorf("empty: %v", err)
	}
	if _, err := ComposeBasic([]dp.Params{{Epsilon: -1}}); err == nil {
		t.Error("invalid cost accepted")
	}
}

func TestComposeParallel(t *testing.T) {
	t.Parallel()
	got, err := ComposeParallel([]dp.Params{
		{Epsilon: 0.1, Delta: 5e-6},
		{Epsilon: 0.9, Delta: 1e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Epsilon != 0.9 || got.Delta != 5e-6 {
		t.Errorf("ComposeParallel = %v", got)
	}
	if _, err := ComposeParallel(nil); !errors.Is(err, ErrNoOps) {
		t.Errorf("empty: %v", err)
	}
}

func TestComposeAdvancedFormula(t *testing.T) {
	t.Parallel()
	cost := dp.Params{Epsilon: 0.1, Delta: 1e-7}
	const k = 10
	const slack = 1e-6
	got, err := ComposeAdvanced(cost, k, slack)
	if err != nil {
		t.Fatal(err)
	}
	wantEps := math.Sqrt(2*10*math.Log(1/slack))*0.1 + 10*0.1*(math.Exp(0.1)-1)
	if math.Abs(got.Epsilon-wantEps) > 1e-9 {
		t.Errorf("eps = %v, want %v", got.Epsilon, wantEps)
	}
	if math.Abs(got.Delta-(10*1e-7+slack)) > 1e-15 {
		t.Errorf("delta = %v", got.Delta)
	}
}

func TestComposeAdvancedBeatsBasicForManyQueries(t *testing.T) {
	t.Parallel()
	cost := dp.Params{Epsilon: 0.01, Delta: 0}
	const k = 10000
	adv, err := ComposeAdvanced(cost, k, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	basic := float64(k) * cost.Epsilon
	if adv.Epsilon >= basic {
		t.Errorf("advanced %v not better than basic %v at k=%d", adv.Epsilon, basic, k)
	}
}

func TestComposeAdvancedValidation(t *testing.T) {
	t.Parallel()
	if _, err := ComposeAdvanced(dp.Params{Epsilon: 1}, 0, 1e-6); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ComposeAdvanced(dp.Params{Epsilon: 1}, 5, 0); err == nil {
		t.Error("slack=0 accepted")
	}
	if _, err := ComposeAdvanced(dp.Params{Epsilon: -1}, 5, 1e-6); err == nil {
		t.Error("invalid cost accepted")
	}
}

func TestAdvancedPerQueryEpsilonInverts(t *testing.T) {
	t.Parallel()
	const total = 1.0
	const k = 9
	const slack = 1e-6
	perQ, err := AdvancedPerQueryEpsilon(total, k, slack)
	if err != nil {
		t.Fatal(err)
	}
	composed, err := ComposeAdvanced(dp.Params{Epsilon: perQ, Delta: 0}, k, slack)
	if err != nil {
		t.Fatal(err)
	}
	if composed.Epsilon > total*(1+1e-6) {
		t.Errorf("per-query ε=%v composes to %v > %v", perQ, composed.Epsilon, total)
	}
	if composed.Epsilon < total*0.999 {
		t.Errorf("per-query ε=%v is loose: composes to %v", perQ, composed.Epsilon)
	}
}

func TestAdvancedPerQueryEpsilonValidation(t *testing.T) {
	t.Parallel()
	if _, err := AdvancedPerQueryEpsilon(0, 5, 1e-6); err == nil {
		t.Error("total=0 accepted")
	}
	if _, err := AdvancedPerQueryEpsilon(1, -1, 1e-6); err == nil {
		t.Error("k<0 accepted")
	}
	if _, err := AdvancedPerQueryEpsilon(1, 5, 2); err == nil {
		t.Error("slack=2 accepted")
	}
}
