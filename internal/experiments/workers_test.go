package experiments

import (
	"encoding/json"
	"math"
	"testing"
)

// TestFigure1WorkersBitIdentical is the golden test for the trial
// fan-out: the full Figure 1 result — measured series, expected series,
// sensitivities, and the rendered RER table — must be byte-identical
// between a serial run and a four-lane run.
func TestFigure1WorkersBitIdentical(t *testing.T) {
	t.Parallel()
	run := func(workers int) *Figure1Result {
		cfg, err := DefaultFigure1Config(Options{Quick: true, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trials = 5
		res, err := RunFigure1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(4)

	if got, want := parallel.Table.Markdown(), serial.Table.Markdown(); got != want {
		t.Fatalf("RER tables differ:\nworkers=4:\n%s\nworkers=1:\n%s", got, want)
	}
	for li := range serial.Series {
		for ei := range serial.Series[li].Y {
			if math.Float64bits(serial.Series[li].Y[ei]) != math.Float64bits(parallel.Series[li].Y[ei]) {
				t.Fatalf("series %s point %d: %v vs %v",
					serial.Series[li].Name, ei, serial.Series[li].Y[ei], parallel.Series[li].Y[ei])
			}
			if math.Float64bits(serial.Expected[li].Y[ei]) != math.Float64bits(parallel.Expected[li].Y[ei]) {
				t.Fatalf("expected series %s point %d differs", serial.Series[li].Name, ei)
			}
		}
	}
	for li := range serial.Sensitivities {
		if math.Float64bits(serial.Sensitivities[li]) != math.Float64bits(parallel.Sensitivities[li]) {
			t.Fatalf("sensitivity %d: %v vs %v", li, serial.Sensitivities[li], parallel.Sensitivities[li])
		}
	}
}

// TestFigure1ResultWorkersIdentical: the whole Figure-1 result, every
// field but the worker knob, must serialize identically for Workers 1 and
// 4 — every trial hierarchy built over its own SliceSource cursor of the
// one synthesized edge list.
func TestFigure1ResultWorkersIdentical(t *testing.T) {
	t.Parallel()
	encode := func(workers int) []byte {
		cfg, err := DefaultFigure1Config(Options{Quick: true, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trials = 3
		res, err := RunFigure1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Config.Workers = 0
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if serial, parallel := encode(1), encode(4); string(serial) != string(parallel) {
		t.Fatal("Figure-1 result differs between workers=1 and workers=4")
	}
}

// TestParallelTrialExperimentsBitIdentical pins every experiment that
// fans trials out — Figure 1, the budget-split ablation, consistency,
// and top-k — to its serial output: the whole JSON-encoded report must
// match byte for byte between Workers 1 and 4.
func TestParallelTrialExperimentsBitIdentical(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"figure1", "budget-split", "consistency", "topk"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			encode := func(workers int) []byte {
				report, err := Run(name, Options{Quick: true, Seed: 5, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(report)
				if err != nil {
					t.Fatal(err)
				}
				return blob
			}
			serial := encode(1)
			parallel := encode(4)
			if string(serial) != string(parallel) {
				t.Errorf("report differs between workers=1 and workers=4\nserial:   %.200s\nparallel: %.200s", serial, parallel)
			}
		})
	}
}

// TestRunTrialsCoversAllTrialsAndReportsLowestError checks the fan-out
// helper's contract directly.
func TestRunTrialsCoversAllTrialsAndReportsLowestError(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 3, 16} {
		seen := make([]int, 23)
		err := runTrials(workers, len(seen), func(worker, trial int) error {
			seen[trial]++
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for trial, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: trial %d ran %d times", workers, trial, n)
			}
		}
	}

	boom := func(trial int) error {
		if trial == 7 || trial == 3 {
			return errTrial(trial)
		}
		return nil
	}
	for _, workers := range []int{1, 4} {
		err := runTrials(workers, 10, func(_, trial int) error { return boom(trial) })
		if err == nil || err.Error() != errTrial(3).Error() {
			t.Fatalf("workers=%d: got %v, want the lowest-index failure", workers, err)
		}
	}
}

type errTrial int

func (e errTrial) Error() string { return "trial failed: " + string(rune('0'+int(e))) }

// TestFigure1SweepWorkersBitIdentical pins the intra-trial εg × level
// sweep fan-out: with a single trial every lane lands on the sweep, and
// the result must still be byte-identical to the serial run.
func TestFigure1SweepWorkersBitIdentical(t *testing.T) {
	t.Parallel()
	run := func(workers int) []byte {
		cfg, err := DefaultFigure1Config(Options{Quick: true, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trials = 1
		res, err := RunFigure1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Config = Figure1Config{} // compare results, not the worker knob
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	serial := run(1)
	for _, workers := range []int{4, 7} {
		if got := run(workers); string(got) != string(serial) {
			t.Fatalf("workers=%d: sweep result differs from serial", workers)
		}
	}
}
