package serve

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/bipartite"
)

// TestConcurrentSessionsMatchSerialReplay drives many sessions of one
// dataset at once — the -race CI job's view of concurrent request
// handling over one tree. Each pinned stream must still match its own
// serial replay.
func TestConcurrentSessionsMatchSerialReplay(t *testing.T) {
	t.Parallel()
	_, ds := openTestDataset(t, testConfig())

	const sessions = 6
	transcripts := make([][]byte, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := ds.SessionAt(uint64(100 + i))
			for q := 0; q < 3; q++ {
				m, err := sess.Marginal(2, bipartite.Left)
				if err != nil {
					errs[i] = err
					return
				}
				b, err := json.Marshal(m)
				if err != nil {
					errs[i] = err
					return
				}
				transcripts[i] = append(transcripts[i], b...)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	// Replay each stream serially against a fresh registry: concurrency
	// must be invisible in the bytes.
	_, ds2 := openTestDataset(t, testConfig())
	for i := 0; i < sessions; i++ {
		sess := ds2.SessionAt(uint64(100 + i))
		var want []byte
		for q := 0; q < 3; q++ {
			m, err := sess.Marginal(2, bipartite.Left)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b...)
		}
		if string(transcripts[i]) != string(want) {
			t.Fatalf("session %d: concurrent transcript differs from serial replay", i)
		}
	}
}
