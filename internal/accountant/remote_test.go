package accountant_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/accountant"
	"repro/internal/dp"
)

// TestRemoteClassifiesEveryCode answers a client's first spend with each
// wire error code and checks the class the client puts it in:
// budget-exceeded is a definitive refusal (nothing latched, nothing
// retried); the 409 fence codes latch a single-address client and send a
// member list through re-attach; 5xx retries under the same op ID;
// anything else latches at once. Every spend after the first is admitted.
func TestRemoteClassifiesEveryCode(t *testing.T) {
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	cost := dp.Params{Epsilon: 0.1, Delta: 1e-6}
	for _, tc := range []struct {
		status int
		code   string
		class  string // definitive, fence, retry or latch
	}{
		{http.StatusTooManyRequests, accountant.CodeBudgetExceeded, "definitive"},
		{http.StatusConflict, accountant.CodeBudgetMismatch, "latch"},
		{http.StatusConflict, accountant.CodeEpochFenced, "fence"},
		{http.StatusConflict, accountant.CodeNotAttached, "fence"},
		{http.StatusConflict, accountant.CodeNotPrimary, "fence"},
		{http.StatusBadRequest, accountant.CodeBadRequest, "latch"},
		{http.StatusInternalServerError, accountant.CodeLedgerFailed, "retry"},
		{http.StatusServiceUnavailable, accountant.CodeServiceClosed, "retry"},
		{http.StatusServiceUnavailable, accountant.CodeNoQuorum, "retry"},
		{http.StatusBadGateway, "", "retry"},
		{http.StatusTeapot, "teapot", "latch"},
	} {
		for _, members := range []int{1, 2} {
			name := tc.code
			if name == "" {
				name = "no-code"
			}
			if members > 1 {
				name += "-members"
			}
			t.Run(name, func(t *testing.T) {
				var attaches, spends atomic.Int32
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					switch r.URL.Path {
					case "/v1/ledgers/k/attach":
						attaches.Add(1)
						json.NewEncoder(w).Encode(accountant.AttachResult{Epoch: "e:1", Budget: budget, Remaining: budget})
					case "/v1/ledgers/k/spend":
						if spends.Add(1) == 1 {
							w.WriteHeader(tc.status)
							json.NewEncoder(w).Encode(accountant.WireError{Error: "injected", Code: tc.code})
							return
						}
						json.NewEncoder(w).Encode(accountant.SpendResult{Admitted: true, Seq: 1, Spent: cost, OpCount: 1})
					default:
						w.WriteHeader(http.StatusNotFound)
					}
				}))
				defer srv.Close()
				addr := srv.URL
				if members > 1 {
					addr += "," + srv.URL + "/"
				}
				rl, err := accountant.OpenRemoteLedger(addr, "k", budget, accountant.RemoteOptions{
					Attempts: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
				})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				err = rl.Spend("q0", cost)
				class := tc.class
				if class == "fence" && members == 1 {
					class = "latch"
				}
				switch class {
				case "definitive":
					if !errors.Is(err, accountant.ErrBudgetExceeded) || errors.Is(err, accountant.ErrLedgerFailed) {
						t.Fatalf("spend: %v, want a definitive ErrBudgetExceeded", err)
					}
				case "latch":
					if !errors.Is(err, accountant.ErrLedgerFailed) {
						t.Fatalf("spend: %v, want the ledger latched", err)
					}
					if strings.Contains(err.Error(), "write failed") {
						t.Fatalf("spend: %v: a latched remote ledger reports a write failure", err)
					}
				case "fence", "retry":
					if err != nil {
						t.Fatalf("spend: %v, want it admitted on a later attempt", err)
					}
				}
				wantSpends, wantAttaches := int32(1), int32(1)
				if class == "fence" || class == "retry" {
					wantSpends = 2
				}
				if class == "fence" {
					wantAttaches = 2
				}
				if spends.Load() != wantSpends || attaches.Load() != wantAttaches {
					t.Fatalf("%d spend and %d attach requests, want %d and %d",
						spends.Load(), attaches.Load(), wantSpends, wantAttaches)
				}
				// Only a latch refuses the next spend without asking.
				err = rl.Spend("q1", cost)
				if latched := errors.Is(err, accountant.ErrLedgerFailed); latched != (class == "latch") || (!latched && err != nil) {
					t.Fatalf("second spend: %v (class %s)", err, class)
				}
			})
		}
	}
}
