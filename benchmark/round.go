package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/accountant"
	"repro/internal/dp"
	"repro/internal/serve"
)

// phaseLimit ends a phase at whichever comes first. Measured runs are
// bounded by time (the contract's --seconds); warm-up, smoke and traced
// phases by a fixed op count per client.
type phaseLimit struct {
	duration time.Duration // 0 = none
	ops      int           // per client; 0 = none
}

// phaseLog is what one client observed over one phase.
type phaseLog struct {
	firstStart, lastEnd time.Time
	nanos               []int64 // durations of the ops that passed their checks
	attempted, failed   int
	firstErr            error
}

// runPhase drives every stream concurrently until the limit and returns
// the per-client logs.
func runPhase(streams []opStream, limit phaseLimit) []phaseLog {
	logs := make([]phaseLog, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(s opStream, log *phaseLog) {
			defer wg.Done()
			now := time.Now()
			deadline := now.Add(limit.duration)
			for (limit.ops == 0 || log.attempted < limit.ops) &&
				(limit.duration == 0 || now.Before(deadline)) {
				start, end, err := s.next()
				if log.attempted == 0 {
					log.firstStart = start
				}
				log.attempted++
				log.lastEnd = end
				if err != nil {
					log.failed++
					if log.firstErr == nil {
						log.firstErr = err
					}
				} else {
					log.nanos = append(log.nanos, end.Sub(start).Nanoseconds())
				}
				now = end
			}
		}(s, &logs[i])
	}
	wg.Wait()
	return logs
}

// roundResult is one round of one workload.
type roundResult struct {
	setupS        float64
	throughputOps float64
	latencyP50Ms  float64
	liveHeapMB    float64
	latencyP99Ms  float64
	latencyMaxMs  float64
	attempted     int
	failed        int
	// breaches are correctness-gate failures beyond failed ops.
	breaches []string
}

// ledgerState is the dataset ledger's acknowledged position.
type ledgerState struct {
	ops   int
	spent dp.Params
}

func readLedger(reg *serve.Registry) (ledgerState, error) {
	ds, err := reg.Dataset("d")
	if err != nil {
		return ledgerState{}, err
	}
	return ledgerState{ops: ds.OpCount(), spent: ds.Spent()}, nil
}

// after returns the state n ops of the given cost later, adding the
// cost the way the ledger does so the comparison can be exact.
func (l ledgerState) after(n int, cost dp.Params) ledgerState {
	for i := 0; i < n; i++ {
		l.spent.Epsilon += cost.Epsilon
		l.spent.Delta += cost.Delta
	}
	l.ops += n
	return l
}

// roundLimit is the hard wall-clock bound on one round of one workload:
// a round that has not finished by then is a failed run, not a hang.
const roundLimit = 60 * time.Second

// round is one set-up of one workload, warmed and ready for its timed
// phase.
type round struct {
	w       *workload
	e       *env
	streams []opStream
	setupS  float64
	// base is the ledger after set-up, warmed the ledger after warm-up.
	base, warmed ledgerState
	breaches     []string
	watchdog     *time.Timer
}

func (r *round) breach(format string, args ...any) {
	r.breaches = append(r.breaches, fmt.Sprintf(format, args...))
}

// startRound performs the timed set-up (Open, handler, upload, sessions)
// and the untimed warm-up for the given number of clients, and checks
// that the ledger moved by exactly the warm-up's misses. The caller
// must finish the round.
func startRound(w *workload, in *inputs, scratch string, clients int, warm phaseLimit) (*round, error) {
	r := &round{w: w}
	r.watchdog = time.AfterFunc(roundLimit, func() {
		fatalf("workload %s: round exceeded the %v wall limit", w.name, roundLimit)
	})
	setupStart := time.Now()
	e, err := openEnv(in, w.wal, scratch)
	if err != nil {
		r.watchdog.Stop()
		return nil, err
	}
	r.e = e
	fail := func(err error) (*round, error) {
		r.finish()
		return nil, err
	}
	if r.streams, err = newStreams(w, in, e, clients); err != nil {
		return fail(err)
	}
	r.setupS = time.Since(setupStart).Seconds()

	if r.base, err = readLedger(e.reg); err != nil {
		return fail(err)
	}
	phase1 := 2 * buildRounds * phase1Epsilon
	if r.base.ops != phase1Ops || math.Abs(r.base.spent.Epsilon-phase1) > 1e-9 || r.base.spent.Delta != 0 {
		r.breach("after set-up the ledger holds %d ops, spent %v; want %d op of ε=%v", r.base.ops, r.base.spent, phase1Ops, phase1)
	}

	// Warm-up. The hit_replay leader's pre-computed answers are part of
	// it: they fill the cache the timed phase reads. Only misses cost.
	warmMisses := 0
	if w.kind == kindHitReplay {
		want, err := leaderAnswers(w, e)
		if err != nil {
			return fail(err)
		}
		for _, s := range r.streams {
			s.(*hitStream).want = want
		}
		warmMisses = replayLen
	}
	for _, l := range runPhase(r.streams, warm) {
		if l.firstErr != nil {
			return fail(fmt.Errorf("warm-up: %w", l.firstErr))
		}
		if w.kind == kindMiss {
			warmMisses += l.attempted
		}
	}
	runtime.GC()
	if r.warmed, err = readLedger(e.reg); err != nil {
		return fail(err)
	}
	if want := r.base.after(warmMisses, w.opCost()); r.warmed != want {
		r.breach("ledger after warm-up: %+v, want %+v", r.warmed, want)
	}
	return r, nil
}

// checkLedger holds the ledger to exactly the misses done since
// warm-up: hits and ingests of another dataset cost "d" nothing, every
// miss costs its price once.
func (r *round) checkLedger(misses int) {
	now, err := readLedger(r.e.reg)
	if err != nil {
		r.breach("%v", err)
		return
	}
	if r.w.kind != kindMiss {
		misses = 0
	}
	if want := r.warmed.after(misses, r.w.opCost()); now != want {
		r.breach("ledger after %d timed misses: %+v, want %+v", misses, now, want)
	}
}

// finish closes the clients and the registry, verifies the WAL replays
// to the acknowledged state, and removes the round's files.
func (r *round) finish() {
	defer r.watchdog.Stop()
	for _, s := range r.streams {
		if err := s.close(); err != nil {
			r.breach("closing client: %v", err)
		}
	}
	if r.w.wal {
		if acked, err := readLedger(r.e.reg); err != nil {
			r.breach("%v", err)
		} else if err := checkWALReplay(r.e, acked); err != nil {
			r.breach("%v", err)
		}
	}
	if err := r.e.close(); err != nil {
		r.breach("closing round: %v", err)
	}
}

// runRound runs one measured round: set-up, warm-up, the timed phase,
// the live-heap reading and the correctness gate.
func runRound(w *workload, in *inputs, scratch string, warm, timed phaseLimit) (roundResult, error) {
	r, err := startRound(w, in, scratch, w.clients, warm)
	if err != nil {
		return roundResult{}, err
	}
	res := roundResult{setupS: r.setupS}
	logs := runPhase(r.streams, timed)

	var first, last time.Time
	var nanos []int64
	for _, l := range logs {
		res.attempted += l.attempted
		res.failed += l.failed
		if l.firstErr != nil {
			r.breach("failed op: %v", l.firstErr)
		}
		if l.attempted == 0 {
			continue
		}
		if first.IsZero() || l.firstStart.Before(first) {
			first = l.firstStart
		}
		if l.lastEnd.After(last) {
			last = l.lastEnd
		}
		nanos = append(nanos, l.nanos...)
	}
	if len(nanos) > 0 {
		latencies := nanosToMillis(nanos)
		res.latencyP50Ms = median(latencies)
		res.latencyP99Ms = percentile(latencies, 0.99)
		res.latencyMaxMs = slices.Max(latencies)
		res.throughputOps = float64(len(nanos)) / last.Sub(first).Seconds()
	} else {
		r.breach("no operation succeeded")
	}
	res.liveHeapMB = heapAllocMB()
	if res.failed == 0 {
		r.checkLedger(res.attempted)
	}
	r.finish()
	res.breaches = r.breaches
	return res, nil
}

// checkWALReplay closes the registry and reopens the round's WAL the
// way a restarted server would: the replayed position must be the
// acknowledged one.
func checkWALReplay(e *env, acked ledgerState) error {
	ds, err := e.reg.Dataset("d")
	if err != nil {
		return err
	}
	st, ok := ds.Durability()
	if !ok {
		return fmt.Errorf("dataset d has no durable ledger")
	}
	if err := e.reg.Close(); err != nil {
		return fmt.Errorf("closing registry: %w", err)
	}
	dl, err := accountant.OpenDurableLedger(totalBudget, st.Path, accountant.DurableOptions{})
	if err != nil {
		return fmt.Errorf("reopening WAL: %w", err)
	}
	defer dl.Close()
	if got := (ledgerState{ops: dl.OpCount(), spent: dl.Spent()}); got != acked {
		return fmt.Errorf("WAL replay restored %+v, acknowledged %+v", got, acked)
	}
	return nil
}
