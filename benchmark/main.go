// Command benchmark is the repository's performance yard-stick: it
// drives the serving layer's public http.Handler in-process from a
// closed loop of clients over six workloads and prints every end-to-end
// metric (tracing off) or every per-layer metric (tracing on). See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// rounds is how many times each workload runs, each from a fresh
// set-up, in one invocation.
const rounds = 5

// invocationLimit bounds a whole untraced or traced invocation.
const invocationLimit = 150 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// scratchDir is the invocation's private directory for WALs, upload
// spools and the default trace output; cleanup removes it on every exit
// path.
var (
	scratchDir  string
	cleanupOnce sync.Once
)

func cleanup() {
	cleanupOnce.Do(func() {
		if scratchDir != "" {
			os.RemoveAll(scratchDir)
		}
	})
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	cleanup()
	os.Exit(1)
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or \"all\" for the six interleaved round-robin")
		seed         = flag.Uint64("seed", 1, "input seed: the same seed gives the same graph and the same served noise")
		seconds      = flag.Float64("seconds", 15, "timed seconds per workload, split evenly over the rounds")
		trace        = flag.Int("trace", 0, "1 = traced run: layer probes and spans, prints the per-layer metrics")
		out          = flag.String("out", "", "directory to keep trace.json in (default: the invocation's scratch directory, removed on exit)")
		smoke        = flag.Bool("smoke", false, "one round on a small graph with fixed small op counts; checks only, numbers are meaningless")
		selfcheck    = flag.Int("selfcheck", 0, "run two interleaved sets of N invocations of this binary and compare their medians against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *seconds <= 0 || *seconds > 60 {
		fatalf("-seconds must be in (0, 60]")
	}

	if *selfcheck > 0 {
		if err := runSelfcheck(*selfcheck, *seed, *seconds); err != nil {
			fatalf("%v", err)
		}
		return
	}

	var selected []*workload
	if *workloadName == "all" {
		selected = workloads
	} else if w := workloadByName(*workloadName); w != nil {
		selected = []*workload{w}
	} else {
		fatalf("unknown workload %q", *workloadName)
	}

	// Everything the run writes — WALs, the handler's upload spool
	// (os.CreateTemp under TMPDIR), trace.json — stays under one
	// directory inside the working directory.
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fatalf("creating %s: %v", base, err)
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fatalf("creating scratch directory: %v", err)
	}
	if scratchDir, err = filepath.Abs(dir); err != nil {
		fatalf("resolving %s: %v", dir, err)
	}
	defer cleanup()
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-interrupted
		fatalf("stopped by %v", sig)
	}()
	if err := os.Setenv("TMPDIR", scratchDir); err != nil {
		fatalf("setting TMPDIR: %v", err)
	}
	watchdog := time.AfterFunc(invocationLimit, func() {
		fatalf("invocation exceeded the %v wall limit", invocationLimit)
	})
	defer watchdog.Stop()

	spec := fullGraph
	if *smoke {
		spec = smokeGraph
	}
	in, err := makeInputs(spec, *seed)
	if err != nil {
		fatalf("%v", err)
	}

	var res result
	switch {
	case *trace == 1:
		if len(selected) != 1 {
			fatalf("-trace 1 needs one -workload")
		}
		traceDir := *out
		if traceDir == "" {
			traceDir = scratchDir
		}
		res, err = runTraced(selected[0], in, *seconds, *smoke, traceDir)
	case *trace == 0:
		res, err = runMeasured(selected, in, *seconds, *smoke)
	default:
		fatalf("-trace must be 0 or 1")
	}
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		cleanup()
		os.Exit(2)
	}
}

// measurement is the rounds of one workload in one invocation.
type measurement struct {
	w      *workload
	rounds []roundResult
}

func (m *measurement) column(pick func(roundResult) float64) []float64 {
	out := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		out[i] = pick(r)
	}
	return out
}

// endToEndMetrics are the gated metrics in reporting order: how each is
// read off a round, how the rounds' values become the reported one, and
// the share of the parent's median by which it may worsen.
// BENCHMARK.json holds the same names, units, directions and bounds; a
// test keeps the two in step.
//
// The two speed metrics report the least-disturbed round, not the
// median round. On the shared 2-core reference box the same binary
// alternates between quiet minutes, in which all five rounds agree
// within 4 %, and disturbed ones, in which rounds lose up to 25 %; the
// disturbance only ever slows a round. Over ten invocations the median
// round's throughput spread 9–14 % of its median on miss_mem and
// miss_wal, the best round's 6 % (README, "Noise"). A change to the
// program moves every round, the best one included. Set-up time and
// live heap, which the disturbance barely touches, keep the median.
var endToEndMetrics = []struct {
	name, unit, better string
	bound              float64
	pick               func(roundResult) float64
	across             func([]float64) float64
}{
	{"setup_s", "s", "lower", 0.25, func(r roundResult) float64 { return r.setupS }, median},
	{"throughput_ops", "ops/s", "higher", 0.25, func(r roundResult) float64 { return r.throughputOps }, slices.Max[[]float64]},
	{"latency_p50_ms", "ms", "lower", 0.25, func(r roundResult) float64 { return r.latencyP50Ms }, slices.Min[[]float64]},
	{"live_heap_mb", "MB", "lower", 0.10, func(r roundResult) float64 { return r.liveHeapMB }, median},
}

// endToEnd is the gated metrics of one workload.
func (m *measurement) endToEnd() map[string]metric {
	out := make(map[string]metric, len(endToEndMetrics))
	for _, em := range endToEndMetrics {
		out[em.name] = metric{em.across(m.column(em.pick)), em.unit}
	}
	return out
}

// measure runs the selected workloads round-robin: round 1 of each,
// then round 2 of each, … so every workload's rounds are spread over the
// whole invocation and a slow minute on a shared box costs each workload
// one round, not its whole measurement.
func measure(selected []*workload, in *inputs, seconds float64, smoke bool) ([]*measurement, error) {
	ms := make([]*measurement, len(selected))
	for i, w := range selected {
		ms[i] = &measurement{w: w}
	}
	nRounds := rounds
	if smoke {
		nRounds = 1
	}
	for round := 0; round < nRounds; round++ {
		for _, m := range ms {
			timed := phaseLimit{duration: time.Duration(seconds / rounds * float64(time.Second))}
			if smoke {
				timed = phaseLimit{ops: max(m.w.nominalOps/100/m.w.clients, 2)}
			}
			r, err := runRound(m.w, in, scratchDir, m.w.warmLimit(smoke), timed)
			if err != nil {
				return nil, fmt.Errorf("workload %s, round %d: %w", m.w.name, round+1, err)
			}
			m.rounds = append(m.rounds, r)
		}
	}
	return ms, nil
}

// summary is the human-readable record printed before the result line.
// Claim is always null: this program measures, it never claims a gain.
type summary struct {
	Seed      uint64                   `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Rounds    int                      `json:"rounds"`
	NumCPU    int                      `json:"num_cpu"`
	GoVersion string                   `json:"go_version"`
	Workloads map[string]workloadStats `json:"workloads"`
	Claim     *string                  `json:"claim"`
}

type workloadStats struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Breaches  []string             `json:"breaches,omitempty"`
	Metrics   map[string]metric    `json:"metrics"`
	PerRound  map[string][]float64 `json:"per_round"`
}

// runMeasured is the untraced run: the end-to-end metrics. With one
// workload the metric names are bare, as BENCHMARK.json lists them; with
// several each is prefixed "<workload>/".
func runMeasured(selected []*workload, in *inputs, seconds float64, smoke bool) (result, error) {
	ms, err := measure(selected, in, seconds, smoke)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	sum := summary{
		Seed: in.seed, Seconds: seconds, Rounds: len(ms[0].rounds),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Workloads: map[string]workloadStats{},
	}
	for _, m := range ms {
		ws := workloadStats{Metrics: m.endToEnd(), PerRound: map[string][]float64{}}
		for _, em := range endToEndMetrics {
			ws.PerRound[em.name] = m.column(em.pick)
		}
		for _, r := range m.rounds {
			ws.Attempted += r.attempted
			ws.Failed += r.failed
			ws.Breaches = append(ws.Breaches, r.breaches...)
		}
		res.Attempted += ws.Attempted
		res.Failed += ws.Failed
		if ws.Failed > 0 || len(ws.Breaches) > 0 {
			res.Correct = false
		}
		for name, v := range ws.Metrics {
			if len(ms) > 1 {
				name = m.w.name + "/" + name
			}
			res.Metrics[name] = v
		}
		sum.Workloads[m.w.name] = ws
	}
	pretty, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(pretty))
	return res, nil
}
