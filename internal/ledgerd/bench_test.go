package ledgerd_test

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/accountant"
	"repro/internal/dp"
	"repro/internal/ledgerd"
)

// spender is the sequencer surface BenchmarkSequencerSpend drives.
type spender interface {
	Attach(key string, budget dp.Params) (accountant.AttachResult, error)
	Spend(key, epoch, opID, label string, cost dp.Params) (accountant.SpendResult, error)
}

// BenchmarkSequencerSpend prices one admitted spend on the sequencer,
// called in-process by 8 concurrent spenders spread over 1, 4 or 8
// budget keys: the single-node sequencer under each fsync policy, and
// the primary of a 3-member group replicating over loopback HTTP. ns/op
// is wall time per admitted spend across all spenders. Every run of a
// row starts settled: the sequencer or group of the run before it is
// closed, its goroutines and loopback connections are gone, and its
// garbage is collected.
func BenchmarkSequencerSpend(b *testing.B) {
	base := runtime.NumGoroutine()
	for _, policy := range []accountant.FsyncPolicy{accountant.FsyncAlways, accountant.FsyncOff} {
		for _, keys := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("single/fsync=%s/keys=%d", policy, keys), func(b *testing.B) {
				settle(b, base)
				seq, err := ledgerd.New(ledgerd.Options{Dir: b.TempDir(), Fsync: policy})
				if err != nil {
					b.Fatal(err)
				}
				defer seq.Close()
				benchSpends(b, seq, keys)
			})
		}
	}
	for _, keys := range []int{1, 8} {
		b.Run(fmt.Sprintf("group3/keys=%d", keys), func(b *testing.B) {
			settle(b, base)
			c := newCluster(b, 3, -1)
			if err := c.group("n1").Promote(); err != nil {
				b.Fatal(err)
			}
			benchSpends(b, c.group("n1"), keys)
		})
	}
}

// settle waits until no goroutine beyond the benchmark's own outlives
// the run before this one — a closed group's replication loops, the
// loopback servers' handlers, the client's idle connections — and then
// collects the garbage that run left, so it costs this run nothing.
// base is the goroutine count before the first row; a running row adds
// its own goroutine.
func settle(b *testing.B, base int) {
	b.Helper()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > base+1; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			b.Fatalf("%d goroutines still running, %d before the first row", n, base)
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
}

// benchSpends attaches keys budget keys, then runs b.N spends from 8
// spenders, spender i on key i mod keys, each under a fresh op ID.
func benchSpends(b *testing.B, s spender, keys int) {
	const spenders = 8
	cost := dp.Params{Epsilon: 1}
	epochs := make([]string, keys)
	for k := range epochs {
		att, err := s.Attach(fmt.Sprintf("k%d", k), dp.Params{Epsilon: 1e15})
		if err != nil {
			b.Fatal(err)
		}
		epochs[k] = att.Epoch
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < spenders; i++ {
		wg.Add(1)
		go func(key, epoch string) {
			defer wg.Done()
			for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
				if _, err := s.Spend(key, epoch, strconv.FormatInt(n, 10), "q", cost); err != nil {
					b.Error(err)
					return
				}
			}
		}(fmt.Sprintf("k%d", i%keys), epochs[i%keys])
	}
	wg.Wait()
}
