package ledgerd_test

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dp"
	"repro/internal/ledgerd"
)

// spender is the sequencer surface BenchmarkSequencerSpend drives.
type spender interface {
	Attach(key string, budget dp.Params) (ledgerd.AttachResult, error)
	Spend(key, epoch, opID, label string, cost dp.Params) (ledgerd.SpendResult, error)
}

// BenchmarkSequencerSpend prices one admitted spend on the sequencer,
// called in-process by 8 concurrent spenders spread over 1, 4 or 8
// budget keys: the single-node sequencer under each fsync policy, and
// the primary of a 3-member group replicating over loopback HTTP. ns/op
// is wall time per admitted spend across all spenders.
func BenchmarkSequencerSpend(b *testing.B) {
	for _, policy := range []accountant.FsyncPolicy{accountant.FsyncAlways, accountant.FsyncOff} {
		for _, keys := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("single/fsync=%s/keys=%d", policy, keys), func(b *testing.B) {
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
			c := newCluster(b, 3, -1)
			if err := c.group("n1").Promote(); err != nil {
				b.Fatal(err)
			}
			benchSpends(b, c.group("n1"), keys)
		})
	}
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
