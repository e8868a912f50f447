package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/accountant"
	"repro/internal/dp"
)

func TestParseArgs(t *testing.T) {
	dir := t.TempDir()
	cfg, err := parseArgs([]string{
		"-addr", "127.0.0.1:9999", "-ledger-dir", dir,
		"-fsync", "off",
		"-pprof", "127.0.0.1:6061",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:9999" || cfg.pprofAddr != "127.0.0.1:6061" {
		t.Fatalf("addr %q pprof %q", cfg.addr, cfg.pprofAddr)
	}
	if cfg.opts.Dir != dir || cfg.opts.Fsync != accountant.FsyncOff {
		t.Fatalf("opts = %+v", cfg.opts)
	}

	if _, err := parseArgs(nil); err == nil {
		t.Fatal("missing -ledger-dir accepted")
	}
	for _, policy := range []string{"sometimes", "interval"} {
		if _, err := parseArgs([]string{"-ledger-dir", dir, "-fsync", policy}); err == nil {
			t.Fatalf("-fsync %s accepted", policy)
		}
	}
	if _, err := parseArgs([]string{"-ledger-dir", dir, "-fsync-interval", "50ms"}); err == nil {
		t.Fatal("-fsync-interval accepted")
	}

	// Group-mode flag validation.
	grp, err := parseArgs([]string{"-ledger-dir", dir, "-node-id", "n1",
		"-peers", "n1=127.0.0.1:1,n2=127.0.0.1:2,n3=127.0.0.1:3"})
	if err != nil {
		t.Fatal(err)
	}
	if grp.opts.NodeID != "n1" || len(grp.opts.Peers) != 3 || grp.opts.Peers["n2"] != "127.0.0.1:2" {
		t.Fatalf("group cfg = %+v", grp)
	}
	if _, err := parseArgs([]string{"-ledger-dir", dir, "-node-id", "n1"}); err == nil {
		t.Fatal("-node-id without -peers accepted")
	}
	if _, err := parseArgs([]string{"-ledger-dir", dir, "-peers", "n1=a:1"}); err == nil {
		t.Fatal("-peers without -node-id accepted")
	}
	if _, err := parseArgs([]string{"-ledger-dir", dir, "-node-id", "n9", "-peers", "n1=a:1"}); err == nil {
		t.Fatal("-node-id missing from -peers accepted")
	}
	if _, err := parseArgs([]string{"-ledger-dir", dir, "-node-id", "n1", "-peers", "n1=a:1", "-fsync", "off"}); err == nil {
		t.Fatal("group mode with -fsync off accepted")
	}
	// One address under two member IDs: the member would replicate to
	// itself while holding its own lock.
	_, err = parseArgs([]string{"-ledger-dir", dir, "-node-id", "n1", "-peers", "n1=a:1,n2=a:1"})
	if err == nil || !strings.Contains(err.Error(), `"a:1"`) {
		t.Fatalf("repeated member address: got %v, want an error naming a:1", err)
	}
}

// TestLedgerdEndToEnd boots the real binary path: attach, spend,
// restart, verify the fence and the replayed budget, shut down cleanly.
func TestLedgerdEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledgers")

	start := func() (base string, cancel context.CancelFunc, done chan error) {
		ctx, cancelCtx := context.WithCancel(context.Background())
		addrc := make(chan string, 1)
		done = make(chan error, 1)
		go func() {
			done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-ledger-dir", dir},
				func(addr string) { addrc <- addr })
		}()
		select {
		case addr := <-addrc:
			return "http://" + addr, cancelCtx, done
		case err := <-done:
			t.Fatalf("sequencer exited early: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("sequencer never started")
		}
		panic("unreachable")
	}
	stop := func(cancel context.CancelFunc, done chan error) {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("sequencer never shut down")
		}
	}

	base, cancel, done := start()
	var att struct {
		Epoch string `json:"epoch"`
	}
	postJSON(t, base+"/v1/ledgers/k/attach", `{"budget":{"epsilon":0.2,"delta":2e-6}}`, http.StatusOK, &att)
	var sp struct {
		Admitted bool `json:"admitted"`
		Ops      int  `json:"ops"`
	}
	postJSON(t, base+"/v1/ledgers/k/spend",
		`{"epoch":"`+att.Epoch+`","op_id":"c-1","label":"q0","cost":{"epsilon":0.1,"delta":1e-6}}`,
		http.StatusOK, &sp)
	if !sp.Admitted || sp.Ops != 1 {
		t.Fatalf("spend = %+v", sp)
	}
	stop(cancel, done)

	// Restart on the same directory: the old epoch is fenced, the spend
	// replayed, the budget still half gone.
	base, cancel, done = start()
	defer stop(cancel, done)
	var fenced struct {
		Code string `json:"code"`
	}
	postJSON(t, base+"/v1/ledgers/k/spend",
		`{"epoch":"`+att.Epoch+`","op_id":"c-2","label":"q1","cost":{"epsilon":0.1,"delta":1e-6}}`,
		http.StatusConflict, &fenced)
	if fenced.Code != "epoch-fenced" {
		t.Fatalf("stale-epoch code = %q, want epoch-fenced", fenced.Code)
	}
	var att2 struct {
		Epoch string `json:"epoch"`
		Ops   int    `json:"ops"`
	}
	postJSON(t, base+"/v1/ledgers/k/attach", `{"budget":{"epsilon":0.2,"delta":2e-6}}`, http.StatusOK, &att2)
	if att2.Epoch == att.Epoch || att2.Ops != 1 {
		t.Fatalf("re-attach = %+v (old epoch %q)", att2, att.Epoch)
	}
}

// TestHelperProcess is the re-exec entry point for process-level kill
// tests: the test binary re-runs itself with GDPLEDGERD_HELPER=1 and
// real gdpledgerd arguments after "--", so a test can SIGKILL a member
// mid-operation — something no in-process harness can simulate.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("GDPLEDGERD_HELPER") != "1" {
		t.Skip("helper process entry point")
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	if err := run(context.Background(), args, nil); err != nil {
		fmt.Fprintln(os.Stderr, "gdpledgerd helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them. A small race window remains; good enough for a test.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserving port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestGroupKillFailoverEndToEnd is the ISSUE's acceptance scenario at
// process level: a 3-member replicated group drains a 12-op budget,
// the primary is SIGKILLed mid-drain, the survivors elect a new term,
// and the client — walking the member list under the same op IDs —
// admits EXACTLY 12 operations before hitting the budget wall.
func TestGroupKillFailoverEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and rides an election timeout")
	}
	addrs := freePorts(t, 3)
	peers := fmt.Sprintf("n1=%s,n2=%s,n3=%s", addrs[0], addrs[1], addrs[2])
	procs := make(map[string]*exec.Cmd, 3)
	for i, id := range []string{"n1", "n2", "n3"} {
		dir := filepath.Join(t.TempDir(), id)
		cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess", "--",
			"-addr", addrs[i], "-ledger-dir", dir, "-node-id", id, "-peers", peers,
			"-heartbeat", "50ms", "-election-timeout", "250ms")
		cmd.Env = append(os.Environ(), "GDPLEDGERD_HELPER=1")
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", id, err)
		}
		procs[id] = cmd
	}
	t.Cleanup(func() {
		for _, cmd := range procs {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	// roleOf asks one member for its replication role ("" if unreachable).
	client := &http.Client{Timeout: time.Second}
	roleOf := func(addr string) string {
		resp, err := client.Get("http://" + addr + "/v1/group/status")
		if err != nil {
			return ""
		}
		defer resp.Body.Close()
		var st struct {
			Role   string `json:"role"`
			Commit uint64 `json:"commit"`
			LogLen uint64 `json:"log_len"`
		}
		if json.NewDecoder(resp.Body).Decode(&st) != nil || st.Commit != st.LogLen {
			return ""
		}
		return st.Role
	}
	findPrimary := func(exclude string) string {
		for i, id := range []string{"n1", "n2", "n3"} {
			if id == exclude {
				continue
			}
			if roleOf(addrs[i]) == "primary" {
				return id
			}
		}
		return ""
	}
	waitPrimary := func(exclude string) string {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if id := findPrimary(exclude); id != "" {
				return id
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("no primary emerged (excluding %q)", exclude)
		return ""
	}
	waitPrimary("")

	// 12 slots exactly: ε 1.2 in 0.1 steps, δ 1.2e-5 in 1e-6 steps.
	budget := dp.Params{Epsilon: 1.2, Delta: 1.2e-5}
	per := dp.Params{Epsilon: 0.1, Delta: 1e-6}
	rl, err := accountant.OpenRemoteLedger(addrs[0]+","+addrs[1]+","+addrs[2], "shared", budget,
		accountant.RemoteOptions{
			Timeout:     2 * time.Second,
			OpTimeout:   60 * time.Second,
			Attempts:    60,
			BackoffBase: 20 * time.Millisecond,
			BackoffMax:  200 * time.Millisecond,
		})
	if err != nil {
		t.Fatalf("OpenRemoteLedger: %v", err)
	}
	admits := 0
	for i := 0; i < 4; i++ {
		if err := rl.Spend(fmt.Sprintf("pre-kill-%d", i), per); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
		admits++
	}

	// SIGKILL the primary mid-drain: no flush, no goodbye.
	victim := findPrimary("")
	if victim == "" {
		t.Fatal("primary vanished before the kill")
	}
	if err := procs[victim].Process.Kill(); err != nil {
		t.Fatalf("killing %s: %v", victim, err)
	}
	_ = procs[victim].Wait()
	delete(procs, victim)

	// Drain the remaining 8 slots through the failover, then hit the wall.
	for i := 0; i < 8; i++ {
		if err := rl.Spend(fmt.Sprintf("post-kill-%d", i), per); err != nil {
			t.Fatalf("spend after kill (%d admitted so far): %v", admits, err)
		}
		admits++
	}
	if admits != 12 {
		t.Fatalf("admitted %d ops, want exactly 12", admits)
	}
	if err := rl.Spend("over", per); !errors.Is(err, accountant.ErrBudgetExceeded) {
		t.Fatalf("13th spend: got %v, want ErrBudgetExceeded", err)
	}
	if st := rl.Status(); st.Failovers == 0 {
		t.Fatalf("client status %+v: expected at least one failover", st)
	}
}

func postJSON(t *testing.T, url, body string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: HTTP %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decoding: %v", url, err)
	}
}
