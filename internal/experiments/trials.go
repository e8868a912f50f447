package experiments

import (
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Parallel trial fan-out.
//
// Every experiment's trials are statistically independent — each owns a
// Split RNG stream pre-derived in serial order — so they can run on any
// number of goroutines as long as (a) no trial touches another trial's
// state and (b) the reduction over trial results happens in trial order.
// runTrials provides (a) by confining each fn call to trial-indexed
// slots, and the callers provide (b); together they make every
// experiment's output bit-identical for any Options.Workers, which the
// golden tests in experiments_test.go pin.

// runTrials runs fn(worker, trial) for every trial in [0, trials) across
// min(workers, trials) goroutines, or inline when that is fewer than
// two. worker identifies the executing lane in [0, numTrialWorkers): fn
// may index per-worker state (a reusable release buffer) with it,
// because a lane runs at most one fn at a time. fn must write results
// only into trial-indexed slots; callers reduce those in trial order
// afterwards.
//
// On failure the error returned is always the failing trial with the
// lowest index, so the reported failure is deterministic; the inline
// path stops there, while fanned-out lanes finish their in-flight
// trials. Callers discard all results on error, so the difference is
// unobservable.
func runTrials(workers, trials int, fn func(worker, trial int) error) error {
	nw := numTrialWorkers(workers, trials)
	if nw < 2 {
		for trial := 0; trial < trials; trial++ {
			if err := fn(0, trial); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, trials)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				trial := int(next.Add(1)) - 1
				if trial >= trials {
					return
				}
				errs[trial] = fn(worker, trial)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// numTrialWorkers returns how many lanes runTrials will use.
func numTrialWorkers(workers, trials int) int {
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// buildWorkersFor returns the intra-trial parallelism each trial should
// use — for the hierarchy build and for the εg × level sweep: the worker
// budget divided across the trial lanes, rounded up — few trials on a
// many-core box still parallelize inside each trial, many trials run
// (near-)single-threaded, and a non-dividing budget mildly
// oversubscribes rather than stranding the remainder. A tree is
// bit-identical for any build worker count, so the split never changes
// results. A serial trial loop keeps the full budget for the build's own
// pool.
func buildWorkersFor(workers, trials int) int {
	lanes := numTrialWorkers(workers, trials)
	if lanes < 2 {
		return workers
	}
	return (workers + lanes - 1) / lanes
}

// splitPerTrial derives one child stream per trial from src, in trial
// order — exactly the streams a serial loop would consume — so trials
// can then run in any order and on any lane.
func splitPerTrial(src *rng.Source, trials int) []*rng.Source {
	out := make([]*rng.Source, trials)
	for trial := range out {
		out[trial] = src.Split(uint64(trial))
	}
	return out
}
