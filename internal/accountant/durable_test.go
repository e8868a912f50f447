package accountant

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dp"
)

// faultSyncer wraps a real file and fails the Nth write or sync — the
// fault-injection seam's test double. failWrite may tear the record:
// partialWrite writes a prefix of the frame before reporting failure,
// exactly what a crashed kernel flush leaves behind.
type faultSyncer struct {
	f            *os.File
	writes       int
	syncs        int
	failWrite    int // 1-based write call to fail; 0 = never
	failSync     int // 1-based sync call to fail; 0 = never
	partialWrite bool
	// beforeWrite, if set, runs at the start of every write, after the
	// count: a hook to hold a batch in flight.
	beforeWrite func()
}

func (s *faultSyncer) Write(p []byte) (int, error) {
	s.writes++
	if s.beforeWrite != nil {
		s.beforeWrite()
	}
	if s.failWrite != 0 && s.writes >= s.failWrite {
		if s.partialWrite && len(p) > 1 {
			n, _ := s.f.Write(p[:len(p)/2])
			return n, errors.New("injected partial write")
		}
		return 0, errors.New("injected write failure")
	}
	return s.f.Write(p)
}

func (s *faultSyncer) Sync() error {
	s.syncs++
	if s.failSync != 0 && s.syncs >= s.failSync {
		return errors.New("injected sync failure")
	}
	return s.f.Sync()
}

func (s *faultSyncer) Close() error { return s.f.Close() }

// openFault returns DurableOptions whose writer wraps real files in a
// faultSyncer configured by fn (called per opened file).
func openFault(fn func(*faultSyncer)) DurableOptions {
	return DurableOptions{
		OpenWriter: func(path string) (WriteSyncer, error) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
			if err != nil {
				return nil, err
			}
			fs := &faultSyncer{f: f}
			if fn != nil {
				fn(fs)
			}
			return fs, nil
		},
	}
}

func mustOpen(t testing.TB, budget dp.Params, path string, opts DurableOptions) *DurableLedger {
	t.Helper()
	d, err := OpenDurableLedger(budget, path, opts)
	if err != nil {
		t.Fatalf("OpenDurableLedger(%s): %v", path, err)
	}
	return d
}

func TestDurableRoundTrip(t *testing.T) {
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	path := filepath.Join(t.TempDir(), "ledger.wal")

	d := mustOpen(t, budget, path, DurableOptions{})
	want := []struct {
		label string
		cost  dp.Params
	}{
		{"ingest/phase1", dp.Params{Epsilon: 0.3}},
		{"s1/q0/view/level2", dp.Params{Epsilon: 0.2, Delta: 2e-6}},
		{"s1/q1/marginal/level1", dp.Params{Epsilon: 0.1, Delta: 1e-6}},
	}
	for _, op := range want {
		if err := d.Spend(op.label, op.cost); err != nil {
			t.Fatalf("Spend(%q): %v", op.label, err)
		}
	}
	spent, ops := d.Spent(), d.Ops()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Spend("after-close", dp.Params{Epsilon: 0.01}); !errors.Is(err, ErrLedgerClosed) {
		t.Fatalf("Spend after Close: got %v, want ErrLedgerClosed", err)
	}

	re := mustOpen(t, budget, path, DurableOptions{})
	defer re.Close()
	if got := re.Spent(); got != spent {
		t.Fatalf("reopened Spent = %s, want %s", got, spent)
	}
	if got := re.Ops(); !reflect.DeepEqual(got, ops) {
		t.Fatalf("reopened Ops = %+v, want %+v", got, ops)
	}
	if st := re.Status(); st.ReplayedOps != len(want) {
		t.Fatalf("ReplayedOps = %d, want %d", st.ReplayedOps, len(want))
	}
	// The replayed ledger keeps accounting against the same budget.
	if err := re.Spend("post-restart", dp.Params{Epsilon: 0.5}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-budget spend after replay: got %v, want ErrBudgetExceeded", err)
	}
	if err := re.Spend("post-restart", dp.Params{Epsilon: 0.4, Delta: 1e-6}); err != nil {
		t.Fatalf("in-budget spend after replay: %v", err)
	}
}

func TestDurableExhaustedStaysExhausted(t *testing.T) {
	budget := dp.Params{Epsilon: 0.1, Delta: 1e-6}
	path := filepath.Join(t.TempDir(), "ledger.wal")
	d := mustOpen(t, budget, path, DurableOptions{})
	for i := 0; i < 4; i++ {
		if err := d.Spend(fmt.Sprintf("q%d", i), dp.Params{Epsilon: 0.025, Delta: 25e-8}); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
	}
	if err := d.Spend("q4", dp.Params{Epsilon: 0.025}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("drain: got %v, want ErrBudgetExceeded", err)
	}
	d.Close()

	re := mustOpen(t, budget, path, DurableOptions{})
	defer re.Close()
	if err := re.Spend("q4", dp.Params{Epsilon: 0.025}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("reopened exhausted ledger admitted a spend: %v", err)
	}
}

// TestDurableTornTail truncates the WAL at EVERY byte length between the
// clean end and the end of the first op and asserts reopen never fails:
// full frames replay, partial frames are discarded and the file repaired.
func TestDurableTornTail(t *testing.T) {
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.wal")

	d := mustOpen(t, budget, path, DurableOptions{})
	var sizes []int64 // file size after the header and after each op
	st := d.Status()
	sizes = append(sizes, st.WALBytes)
	costs := []dp.Params{
		{Epsilon: 0.1, Delta: 1e-6},
		{Epsilon: 0.2, Delta: 2e-6},
		{Epsilon: 0.15, Delta: 3e-6},
	}
	for i, c := range costs {
		if err := d.Spend(fmt.Sprintf("op%d", i), c); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
		sizes = append(sizes, d.Status().WALBytes)
	}
	d.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != sizes[len(sizes)-1] {
		t.Fatalf("file is %d bytes, status says %d", len(full), sizes[len(sizes)-1])
	}

	opsAfter := func(n int) dp.Params {
		var p dp.Params
		for _, c := range costs[:n] {
			p.Epsilon += c.Epsilon
			p.Delta += c.Delta
		}
		return p
	}
	for cut := sizes[0]; cut <= sizes[len(sizes)-1]; cut++ {
		tpath := filepath.Join(dir, fmt.Sprintf("torn-%d.wal", cut))
		if err := os.WriteFile(tpath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDurableLedger(budget, tpath, DurableOptions{})
		if err != nil {
			t.Fatalf("reopen at cut %d: %v", cut, err)
		}
		// The replayed prefix is the ops whose frames fully fit.
		wantOps := 0
		for wantOps+1 < len(sizes) && sizes[wantOps+1] <= cut {
			wantOps++
		}
		if got := re.OpCount(); got != wantOps {
			re.Close()
			t.Fatalf("cut %d: OpCount = %d, want %d", cut, got, wantOps)
		}
		if got, want := re.Spent(), opsAfter(wantOps); got != want {
			re.Close()
			t.Fatalf("cut %d: Spent = %s, want %s", cut, got, want)
		}
		// The torn tail must be gone: the next spend appends at a clean
		// boundary and survives another reopen.
		if err := re.Spend("after-tear", dp.Params{Epsilon: 0.01}); err != nil {
			re.Close()
			t.Fatalf("cut %d: spend after repair: %v", cut, err)
		}
		spent := re.Spent()
		re.Close()
		re2, err := OpenDurableLedger(budget, tpath, DurableOptions{})
		if err != nil {
			t.Fatalf("cut %d: second reopen: %v", cut, err)
		}
		if got := re2.Spent(); got != spent {
			t.Fatalf("cut %d: post-repair Spent = %s, want %s", cut, got, spent)
		}
		re2.Close()
	}
}

// TestDurableFailClosed injects a failure into every write and sync call
// number in turn and asserts the contract at each kill point: the failed
// spend is not admitted, the failure latches, and the reopened ledger's
// spent is exactly the admitted prefix — never more than the client saw
// admitted, never more than the budget.
func TestDurableFailClosed(t *testing.T) {
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	cost := dp.Params{Epsilon: 0.05, Delta: 1e-7}
	const spends = 8

	run := func(t *testing.T, arm func(*faultSyncer), partial bool) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ledger.wal")
		opts := openFault(func(fs *faultSyncer) {
			fs.partialWrite = partial
			arm(fs)
		})
		d := mustOpen(t, budget, path, opts)
		admitted := 0
		var failedAt error
		for i := 0; i < spends; i++ {
			err := d.Spend(fmt.Sprintf("q%d", i), cost)
			if err == nil {
				admitted++
				continue
			}
			failedAt = err
			break
		}
		if failedAt != nil {
			if !errors.Is(failedAt, ErrLedgerFailed) {
				t.Fatalf("injected fault surfaced as %v, want ErrLedgerFailed", failedAt)
			}
			// The failure latches: nothing is admitted afterwards.
			if err := d.Spend("after-fault", cost); !errors.Is(err, ErrLedgerFailed) {
				t.Fatalf("spend after latched failure: got %v, want ErrLedgerFailed", err)
			}
			if st := d.Status(); st.Err == "" {
				t.Fatal("Status.Err empty after latched failure")
			}
		}
		// Accumulate like the ledger does (repeated addition), so the
		// float rounding matches exactly.
		var wantSpent dp.Params
		for i := 0; i < admitted; i++ {
			wantSpent.Epsilon += cost.Epsilon
			wantSpent.Delta += cost.Delta
		}
		if got := d.Spent(); got != wantSpent {
			t.Fatalf("Spent after fault = %s, want %s (%d admitted)", got, wantSpent, admitted)
		}
		d.Close()

		re := mustOpen(t, budget, path, DurableOptions{})
		defer re.Close()
		got := re.Spent()
		// The reopened trail must cover every admission the client saw
		// (FsyncAlways: durable before admitted) without inventing spend
		// beyond the budget.
		if got.Epsilon < wantSpent.Epsilon || got.Delta < wantSpent.Delta {
			t.Fatalf("reopened Spent %s < client-observed admitted %s", got, wantSpent)
		}
		if got.Epsilon > budget.Epsilon || got.Delta > budget.Delta {
			t.Fatalf("reopened Spent %s exceeds budget %s", got, budget)
		}
		// At most the one in-flight (torn) op beyond the admitted set.
		if n := re.OpCount(); n != admitted && n != admitted+1 {
			t.Fatalf("reopened OpCount = %d, want %d or %d", n, admitted, admitted+1)
		}
	}

	// Write call 1 is the WAL header; arm faults from call 2 onward.
	for w := 2; w <= spends+1; w++ {
		for _, partial := range []bool{false, true} {
			t.Run(fmt.Sprintf("write%d_partial=%v", w, partial), func(t *testing.T) {
				run(t, func(fs *faultSyncer) { fs.failWrite = w }, partial)
			})
		}
	}
	for s := 2; s <= spends+1; s++ {
		t.Run(fmt.Sprintf("sync%d", s), func(t *testing.T) {
			run(t, func(fs *faultSyncer) { fs.failSync = s }, false)
		})
	}

	// Batch boundaries: spenders arrive in waves, and the leader's write
	// of batch j holds until wave j+1 is queued behind it, so batch j is
	// exactly wave j. The fault hits batch f; wave f+1 is queued behind it.
	waves := []int{1, 2, 3, 2}
	for f := 0; f < len(waves)-1; f++ {
		for _, kind := range []string{"write", "partial", "sync"} {
			t.Run(fmt.Sprintf("batch%d_of%d_%s", f+1, waves[f], kind), func(t *testing.T) {
				runBatchFault(t, budget, cost, waves, f, kind)
			})
		}
	}
}

// runBatchFault drives waves[:f+2] of concurrent spenders, one batch per
// wave, fails batch f's write, partial write or sync, and asserts: every
// member of batch f and of the wave behind it errors with
// ErrLedgerFailed, none of them is committed, every earlier member is,
// and the reopened ledger lies between the acked spend and the acked
// spend plus batch f.
func runBatchFault(t *testing.T, budget, cost dp.Params, waves []int, f int, kind string) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	started := make(chan int, len(waves))
	var d *DurableLedger
	d = mustOpen(t, budget, path, openFault(func(fs *faultSyncer) {
		// Call 1 is the WAL header; batch j is call j+2.
		switch kind {
		case "write":
			fs.failWrite = f + 2
		case "partial":
			fs.failWrite, fs.partialWrite = f+2, true
		case "sync":
			fs.failSync = f + 2
		}
		fs.beforeWrite = func() {
			j := fs.writes - 2
			if j < 0 {
				return
			}
			started <- j
			if j+1 < len(waves) {
				waitQueued(t, d, waves[j+1])
			}
		}
	}))

	last := f + 1
	errs := make([][]error, last+1)
	var wg sync.WaitGroup
	for j := 0; j <= last; j++ {
		errs[j] = make([]error, waves[j])
		for i := range errs[j] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[j][i] = d.Spend(fmt.Sprintf("b%d/m%d", j, i), cost)
			}()
		}
		if j < last {
			// Launch the next wave only once this batch is in flight.
			select {
			case got := <-started:
				if got != j {
					t.Fatalf("batch %d started while waiting for %d", got, j)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("batch %d never started", j)
			}
		}
	}
	wg.Wait()

	acked := 0
	for j, wave := range errs {
		for i, err := range wave {
			if j < f && err != nil {
				t.Fatalf("b%d/m%d, before the fault: %v", j, i, err)
			}
			if j >= f && !errors.Is(err, ErrLedgerFailed) {
				t.Fatalf("b%d/m%d, in or behind the failed batch: got %v, want ErrLedgerFailed", j, i, err)
			}
		}
		if j < f {
			acked += len(wave)
		}
	}
	var ackedSpent, batchSpent dp.Params
	for i := 0; i < acked; i++ {
		ackedSpent.Epsilon += cost.Epsilon
		ackedSpent.Delta += cost.Delta
	}
	batchSpent = ackedSpent
	for i := 0; i < waves[f]; i++ {
		batchSpent.Epsilon += cost.Epsilon
		batchSpent.Delta += cost.Delta
	}
	if got := d.Spent(); got != ackedSpent {
		t.Fatalf("Spent after fault = %s, want the acked %s", got, ackedSpent)
	}
	for _, op := range d.Ops() {
		var j, i int
		if _, err := fmt.Sscanf(op.Label, "b%d/m%d", &j, &i); err != nil || j >= f {
			t.Fatalf("op %q committed; only waves before batch %d may be", op.Label, f+1)
		}
	}
	d.Close()

	re := mustOpen(t, budget, path, DurableOptions{})
	defer re.Close()
	got := re.Spent()
	if got.Epsilon < ackedSpent.Epsilon || got.Epsilon > batchSpent.Epsilon ||
		got.Delta < ackedSpent.Delta || got.Delta > batchSpent.Delta {
		t.Fatalf("reopened Spent %s outside [acked %s, acked + failed batch %s]", got, ackedSpent, batchSpent)
	}
	if n := re.OpCount(); n < acked || n > acked+waves[f] {
		t.Fatalf("reopened OpCount = %d, want %d..%d", n, acked, acked+waves[f])
	}
}

// waitQueued blocks until the ledger's open batch holds at least n
// spends.
func waitQueued(t *testing.T, d *DurableLedger, n int) {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		if d.spends.Queued() >= n {
			return
		}
	}
	t.Errorf("the open batch never reached %d spends", n)
}

// TestDurableReopenAfterConcurrentDrain races 8 spenders through a
// ledger, then reopens it twice: after Close, and from a copy of the WAL
// taken while the ledger is still open, zero tail and all — the image a
// crash leaves. Both must replay exactly the acked ops, numbered without
// a gap or a repeat.
func TestDurableReopenAfterConcurrentDrain(t *testing.T) {
	const spenders, tries = 8, 12
	budget := dp.Params{Epsilon: 10, Delta: 1e-4}
	cost := dp.Params{Epsilon: 0.1, Delta: 1e-6} // 100 fit; 96 are tried
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.wal")
	d := mustOpen(t, budget, path, DurableOptions{})

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked = map[string]bool{}
	)
	for g := 0; g < spenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tries; i++ {
				label := fmt.Sprintf("g%d/i%d", g, i)
				if err := d.Spend(label, cost); err != nil {
					t.Errorf("spend %s: %v", label, err)
					return
				}
				mu.Lock()
				acked[label] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	live := d.Ops()
	if len(live) != len(acked) {
		t.Fatalf("live trail has %d ops, %d were acked", len(live), len(acked))
	}
	for i, op := range live {
		if op.Seq != i+1 || !acked[op.Label] {
			t.Fatalf("live op %d = %+v: want seq %d and an acked label", i, op, i+1)
		}
	}

	// The crash image: the WAL copied while the ledger is open.
	image := filepath.Join(dir, "image.wal")
	wal := readFile(t, path)
	if int64(len(wal)) <= d.Status().WALBytes {
		t.Fatalf("open WAL is %d bytes, no zero tail past its %d", len(wal), d.Status().WALBytes)
	}
	if err := os.WriteFile(image, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	for _, p := range []string{path, image} {
		re := mustOpen(t, budget, p, DurableOptions{})
		if got := re.Ops(); !reflect.DeepEqual(got, live) {
			re.Close()
			t.Fatalf("%s reopened to %d ops that differ from the %d live ones", filepath.Base(p), len(got), len(live))
		}
		if got := re.Spent(); got != d.Spent() {
			re.Close()
			t.Fatalf("%s reopened Spent = %s, want %s", filepath.Base(p), got, d.Spent())
		}
		re.Close()
	}
}

// TestDurableWALHoldsWholeTrail spends well past the 1024 records an
// older build compacted at: the ledger stays one file, exactly the
// magic, the header frame and one frame per op, and reopens to the
// same trail.
func TestDurableWALHoldsWholeTrail(t *testing.T) {
	const n = 3000
	budget := dp.Params{Epsilon: 10, Delta: 1e-4}
	cost := dp.Params{Epsilon: 1e-3, Delta: 1e-8}
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.wal")
	d := mustOpen(t, budget, path, DurableOptions{})
	want := frame([]byte(walMagic), appendHeaderPayload(nil, budget))
	var scratch []byte
	for i := 1; i <= n; i++ {
		label := []byte(fmt.Sprintf("s%d/q%d/marginal/level2", i%7, i))
		if err := d.SpendBytes(label, cost); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
		want, scratch = appendOpFrame(want, scratch, uint64(i), cost, label)
	}
	ops, spent := d.Ops(), d.Spent()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ledger.wal" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("ledger directory holds %v, want only ledger.wal", names)
	}
	if got := readFile(t, path); !bytes.Equal(got, want) {
		t.Fatalf("WAL is %d bytes, want the %d bytes of magic + header + %d op frames", len(got), len(want), n)
	}

	re := mustOpen(t, budget, path, DurableOptions{})
	defer re.Close()
	if got := re.Ops(); !reflect.DeepEqual(got, ops) {
		t.Fatalf("reopened to %d ops that differ from the %d written", len(got), len(ops))
	}
	if got := re.Spent(); got != spent {
		t.Fatalf("reopened Spent = %s, want %s", got, spent)
	}
}

func TestDurableBudgetMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	d := mustOpen(t, dp.Params{Epsilon: 1, Delta: 1e-5}, path, DurableOptions{})
	if err := d.Spend("op", dp.Params{Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := OpenDurableLedger(dp.Params{Epsilon: 2, Delta: 1e-5}, path, DurableOptions{}); !errors.Is(err, ErrBudgetMismatch) {
		t.Fatalf("reopen under larger budget: got %v, want ErrBudgetMismatch", err)
	}
}

func TestDurableLocking(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	d := mustOpen(t, budget, path, DurableOptions{})
	defer d.Close()
	if _, err := OpenDurableLedger(budget, path, DurableOptions{}); !errors.Is(err, ErrLedgerLocked) {
		t.Fatalf("second open of a live ledger: got %v, want ErrLedgerLocked", err)
	}
}

func TestDurableCorruptMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL1 some junk that is long enough"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableLedger(dp.Params{Epsilon: 1, Delta: 1e-5}, path, DurableOptions{}); !errors.Is(err, ErrLedgerCorrupt) {
		t.Fatalf("foreign magic: got %v, want ErrLedgerCorrupt", err)
	}
}

// TestDurableSequenceBreak refuses a WAL whose op records skip or
// repeat a sequence number, and leaves the file as it was.
func TestDurableSequenceBreak(t *testing.T) {
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	cost := dp.Params{Epsilon: 0.1}
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.wal")
	d := mustOpen(t, budget, path, DurableOptions{})
	for i := 0; i < 3; i++ {
		if err := d.Spend(fmt.Sprintf("op%d", i), cost); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	clean := readFile(t, path)
	for name, seq := range map[string]uint64{"repeat": 2, "gap": 5} {
		t.Run(name, func(t *testing.T) {
			broken, _ := appendOpFrame(clean[:len(clean):len(clean)], nil, seq, cost, []byte("extra"))
			p := filepath.Join(dir, name+".wal")
			if err := os.WriteFile(p, broken, 0o644); err != nil {
				t.Fatal(err)
			}
			if d, err := OpenDurableLedger(budget, p, DurableOptions{}); !errors.Is(err, ErrLedgerCorrupt) {
				if err == nil {
					d.Close()
				}
				t.Fatalf("op %d after op 3: got %v, want ErrLedgerCorrupt", seq, err)
			}
			if got := readFile(t, p); !bytes.Equal(got, broken) {
				t.Fatalf("refused open changed the file: %d bytes, want %d", len(got), len(broken))
			}
		})
	}
}

func TestDurableFsyncPolicies(t *testing.T) {
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncOff} {
		t.Run(string(policy), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ledger.wal")
			var fs *faultSyncer
			opts := openFault(func(s *faultSyncer) { fs = s })
			opts.Fsync = policy
			d := mustOpen(t, budget, path, opts)
			for i := 0; i < 5; i++ {
				if err := d.Spend(fmt.Sprintf("op%d", i), dp.Params{Epsilon: 0.1, Delta: 1e-7}); err != nil {
					t.Fatal(err)
				}
			}
			st := d.Status()
			switch policy {
			case FsyncAlways:
				if st.Unsynced != 0 {
					t.Fatalf("FsyncAlways left %d unsynced records", st.Unsynced)
				}
				// header + one sync per op
				if fs.syncs < 6 {
					t.Fatalf("FsyncAlways issued %d syncs, want ≥ 6", fs.syncs)
				}
			case FsyncOff:
				if st.Unsynced != 5 {
					t.Fatalf("FsyncOff shows %d unsynced, want 5", st.Unsynced)
				}
			}
			spent := d.Spent()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			// Close syncs under every policy: the graceful path is durable.
			re := mustOpen(t, budget, path, DurableOptions{})
			if got := re.Spent(); got != spent {
				t.Fatalf("policy %s: reopened Spent = %s, want %s", policy, got, spent)
			}
			re.Close()
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"", FsyncAlways, true},
		{"always", FsyncAlways, true},
		{"interval", "", false},
		{"off", FsyncOff, true},
		{"sometimes", "", false},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestZeroDeltaBudgetRejectsDelta pins the admit-tolerance fix: a
// strictly zero-delta budget is a pure-ε guarantee and must reject ANY
// op carrying positive δ, however tiny — the old absolute slack admitted
// δ up to ~1e-18 against δ-budget 0.
func TestZeroDeltaBudgetRejectsDelta(t *testing.T) {
	l, err := NewLedger(dp.Params{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("tiny-delta", dp.Params{Epsilon: 0.1, Delta: 1e-19}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("zero-delta budget admitted δ=1e-19: %v", err)
	}
	if err := l.Spend("pure-eps", dp.Params{Epsilon: 0.1}); err != nil {
		t.Fatalf("pure-ε spend against zero-delta budget: %v", err)
	}
	// The relative tolerance still lets n spends of total/n fit exactly.
	l2, err := NewLedger(dp.Params{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := l2.Spend("slice", dp.Params{Epsilon: 1.0 / 7}); err != nil {
			t.Fatalf("slice %d of ε/7: %v", i, err)
		}
	}
}

// syncCounter counts the fsyncs of the writer it wraps.
type syncCounter struct {
	WriteSyncer
	syncs *atomic.Int64
}

func (c syncCounter) Sync() error {
	c.syncs.Add(1)
	return c.WriteSyncer.Sync()
}

// BenchmarkDurableSpend prices one FsyncAlways spend on the default
// writer with one, two and eight concurrent spenders, and counts the
// fsyncs per spend.
func BenchmarkDurableSpend(b *testing.B) {
	label := []byte("s1000/q4711/marginal/level3")
	cost := dp.Params{Epsilon: 1e-3, Delta: 1e-12}
	for _, spenders := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("spenders=%d", spenders), func(b *testing.B) {
			var syncs atomic.Int64
			opts := DurableOptions{OpenWriter: func(path string) (WriteSyncer, error) {
				w, err := openZeroTail(path)
				if err != nil {
					return nil, err
				}
				return syncCounter{w, &syncs}, nil
			}}
			d := mustOpen(b, dp.Params{Epsilon: 1e9, Delta: 0.5}, filepath.Join(b.TempDir(), "bench.wal"), opts)
			defer d.Close()
			syncs.Store(0)
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < spenders; g++ {
				n := b.N / spenders
				if g < b.N%spenders {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := d.SpendBytes(label, cost); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/op")
			b.ReportMetric(float64(syncs.Load())/float64(b.N), "fsyncs/op")
		})
	}
}
