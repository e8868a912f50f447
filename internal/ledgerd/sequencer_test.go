package ledgerd_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/accountant"
	"repro/internal/dp"
	"repro/internal/ledgerd"
)

// dirFiles reads every file in dir: name → bytes.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(des))
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = b
	}
	return out
}

// TestLegacySingleNodeDirRefused: a directory the older single-node
// sequencer wrote (one <key>.wal per budget key, the .sequencer-epoch
// token file) is a format this build does not read. Opening it as an
// empty group would re-arm every spent budget, so New refuses it and
// leaves every file byte-for-byte as it was, creating none.
func TestLegacySingleNodeDirRefused(t *testing.T) {
	for _, files := range [][]string{{".sequencer-epoch", "k.wal"}, {".sequencer-epoch"}, {"k.wal"}} {
		t.Run(strings.Join(files, "+"), func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range files {
				if name == ".sequencer-epoch" {
					if err := os.WriteFile(filepath.Join(dir, name), []byte("0123456789abcdef:3\n"), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				// The per-key WAL exactly as the single-node sequencer wrote it.
				dl, err := accountant.OpenDurableLedger(dp.Params{Epsilon: 1}, filepath.Join(dir, name), accountant.DurableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := dl.Spend("id=op-1|q0", dp.Params{Epsilon: 0.5}); err != nil {
					t.Fatal(err)
				}
				if err := dl.Close(); err != nil {
					t.Fatal(err)
				}
			}
			before := dirFiles(t, dir)
			g, err := ledgerd.New(ledgerd.Options{Dir: dir})
			if err == nil {
				g.Close()
				t.Fatal("New opened a legacy single-node directory")
			}
			if !errors.Is(err, accountant.ErrLedgerCorrupt) {
				t.Fatalf("New: got %v, want ErrLedgerCorrupt", err)
			}
			after := dirFiles(t, dir)
			if len(after) != len(before) {
				t.Fatalf("directory went from %d to %d files", len(before), len(after))
			}
			for name, b := range before {
				if !bytes.Equal(after[name], b) {
					t.Fatalf("%s changed", name)
				}
			}
		})
	}
}

// TestFreshDirsIssueDistinctTokens: the token carries the directory's
// random identity, so two fresh directories at the same term never
// share one; a reopen keeps the identity and bumps the term.
func TestFreshDirsIssueDistinctTokens(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	g1 := newService(t, dir1)
	g2 := newService(t, dir2)
	e1, e2 := g1.Epoch(), g2.Epoch()
	if e1 == e2 {
		t.Fatalf("two fresh directories issued the same token %q", e1)
	}
	if !strings.HasSuffix(e1, ":1") || !strings.HasSuffix(e2, ":1") {
		t.Fatalf("fresh tokens %q, %q: want term 1", e1, e2)
	}
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	re := newService(t, dir1)
	if id, _, _ := strings.Cut(e1, ":"); re.Epoch() != id+":2" {
		t.Fatalf("reopened token %q, want %s:2", re.Epoch(), id)
	}
	// The directory holds the log and the term file, nothing else.
	var names []string
	for name := range dirFiles(t, dir1) {
		names = append(names, name)
	}
	if len(names) != 2 {
		t.Fatalf("ledger dir holds %v, want the group log and the term file", names)
	}
}

// syncCounter is an OpenWriter that counts fsyncs and makes each one
// slow, so concurrent spenders pile up behind it.
type syncCounter struct{ syncs atomic.Int64 }

func (c *syncCounter) open(path string) (accountant.WriteSyncer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, c: c}, nil
}

type countingFile struct {
	*os.File
	c *syncCounter
}

func (f *countingFile) Sync() error {
	f.c.syncs.Add(1)
	time.Sleep(time.Millisecond)
	return f.File.Sync()
}

// TestBatchedSpendsAcrossKeys drains six keys at once from 24 spenders.
// Each key admits exactly its budgeted count, each key's ops are
// numbered densely in order and survive a reopen, and the log took
// fewer fsyncs than it admitted spends: the spends were batched.
func TestBatchedSpendsAcrossKeys(t *testing.T) {
	const keys, slots, perKey = 6, 10, 4
	dir := t.TempDir()
	counter := &syncCounter{}
	g, err := ledgerd.New(ledgerd.Options{Dir: dir, OpenWriter: counter.open})
	if err != nil {
		t.Fatal(err)
	}
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	per := dp.Params{Epsilon: budget.Epsilon / slots, Delta: budget.Delta / slots}
	epochs := make([]string, keys)
	for k := range epochs {
		att, err := g.Attach(fmt.Sprintf("k%d", k), budget)
		if err != nil {
			t.Fatal(err)
		}
		epochs[k] = att.Epoch
	}
	syncsBefore := counter.syncs.Load()
	var admitted, rejected [keys]atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < keys*perKey; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			k := s % keys
			for i := 0; i < slots/2; i++ {
				_, err := g.Spend(fmt.Sprintf("k%d", k), epochs[k], fmt.Sprintf("s%d-%d", s, i), fmt.Sprintf("q%d-%d", s, i), per)
				switch {
				case err == nil:
					admitted[k].Add(1)
				case errors.Is(err, accountant.ErrBudgetExceeded):
					rejected[k].Add(1)
				default:
					t.Errorf("spend: %v", err)
				}
			}
		}(s)
	}
	wg.Wait()
	syncs := counter.syncs.Load() - syncsBefore
	total := int64(0)
	for k := range admitted {
		if got := admitted[k].Load(); got != slots {
			t.Errorf("key k%d admitted %d spends (rejected %d), want exactly %d", k, got, rejected[k].Load(), slots)
		}
		total += admitted[k].Load()
	}
	if syncs >= total {
		t.Errorf("%d fsyncs for %d admitted spends: nothing was batched", syncs, total)
	}
	t.Logf("%d admitted spends in %d fsyncs", total, syncs)

	trails := make([][]accountant.Op, keys)
	for k := range trails {
		ops, err := g.Ops(fmt.Sprintf("k%d", k))
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			if op.Seq != i+1 {
				t.Fatalf("key k%d: op %d has seq %d", k, i, op.Seq)
			}
		}
		trails[k] = ops
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	re := newService(t, dir)
	for k, want := range trails {
		got, err := re.Ops(fmt.Sprintf("k%d", k))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("key k%d reopened to %v, want %v", k, got, want)
		}
	}
}

// TestNewRefusesBadMembership: a member map that lists one address
// under two IDs is refused with an error naming the address (the member
// would otherwise send its RPCs to itself while holding its own lock),
// and so is any fsync policy but always once peers are set.
func TestNewRefusesBadMembership(t *testing.T) {
	_, err := ledgerd.New(ledgerd.Options{Dir: t.TempDir(), NodeID: "n1",
		Peers: map[string]string{"n1": "a:1", "n2": "a:1", "n3": "b:1"}})
	if err == nil || !strings.Contains(err.Error(), `"a:1"`) {
		t.Fatalf("repeated address: got %v, want an error naming a:1", err)
	}
	_, err = ledgerd.New(ledgerd.Options{Dir: t.TempDir(), NodeID: "n1", Fsync: accountant.FsyncOff,
		Peers: map[string]string{"n1": "a:1", "n2": "b:1", "n3": "c:1"}})
	if err == nil {
		t.Fatal("a replicated group accepted fsync off")
	}
}

// TestGroupOfOneServesNoReplication: without peers the handler mounts
// the client protocol only.
func TestGroupOfOneServesNoReplication(t *testing.T) {
	srv := httptest.NewServer(ledgerd.NewHandler(newService(t, t.TempDir())))
	defer srv.Close()
	for _, path := range []string{"/v1/group/status", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if strings.HasPrefix(path, "/v1/group/") {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s: HTTP %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestGroupBodiesAreStrict: replication bodies go through the same
// strict decoder as client bodies, so an unknown field is a 400, never
// a batch run as whatever the known fields say.
func TestGroupBodiesAreStrict(t *testing.T) {
	g, err := ledgerd.New(ledgerd.Options{Dir: t.TempDir(), NodeID: "n1", ElectionTimeout: -1,
		Peers: map[string]string{"n1": "n1.invalid", "n2": "n2.invalid", "n3": "n3.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(ledgerd.NewHandler(g))
	defer srv.Close()
	for body, want := range map[string]int{
		`{"term":1,"leader":"n2","prev_index":0,"prev_term":0,"commit":0}`:            http.StatusOK,
		`{"term":1,"leader":"n2","prev_index":0,"prev_term":0,"commit":0,"extra":1}`:  http.StatusBadRequest,
		`{"term":1,"leader":"n2","prev_index":0,"prev_term":0,"commit":0} {"term":2}`: http.StatusBadRequest,
	} {
		resp, err := http.Post(srv.URL+"/v1/group/append", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("append %s: HTTP %d, want %d", body, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/group/vote", "application/json", strings.NewReader(`{"term":5,"candidate":"n2","bogus":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("vote with an unknown field: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentRetriesAdmitOnce: the same op ID sent by many spenders
// at once is admitted once. A second spend on a key waits for the next
// batch, where the whole-log dedup index finds the first.
func TestConcurrentRetriesAdmitOnce(t *testing.T) {
	g := newService(t, t.TempDir())
	att, err := g.Attach("k", dp.Params{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	const spenders = 8
	results := make([]ledgerd.SpendResult, spenders)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := g.Spend("k", att.Epoch, "op-1", "q", dp.Params{Epsilon: 0.1})
			if err != nil {
				t.Errorf("spend %d: %v", i, err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	fresh := 0
	for _, res := range results {
		if !res.Replayed {
			fresh++
		}
		if res.Seq != 1 || res.OpCount != 1 {
			t.Fatalf("result %+v, want seq 1 of 1 op", res)
		}
	}
	if fresh != 1 {
		t.Fatalf("%d spenders were admitted fresh, want exactly 1", fresh)
	}
}
