package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/serve"
)

// span is one timed call into a layer. IDs start at 1; Parent 0 marks a
// root. Start and End are nanoseconds since the traced replay began.
// The root span of an operation wraps the real ServeHTTP call. Its
// descendants are replayed: the harness calls the layer's public
// function again, right after the operation, with the inputs the served
// path gave it, because the program carries no spans of its own yet. A
// replayed span therefore lies after its parent in time, and a parent's
// self time is computed from durations, not from interval overlap.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) add(name string, parent, op int, start, end time.Time, replayed bool) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Replayed: replayed,
	})
	return id
}

// replay times f as a replayed child of parent.
func (t *tracer) replay(name string, parent, op int, f func() error) (int, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	if err != nil {
		return 0, fmt.Errorf("replaying %s for op %d: %w", name, op, err)
	}
	return t.add(name, parent, op, start, end, true), nil
}

// selfNanos returns each span's self time, indexed by ID-1: its
// duration minus the durations of its direct children.
func selfNanos(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID-1] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

// layerTimes is the median duration and median self time, in µs, of the
// spans of each name.
func layerTimes(spans []span) (dur, self map[string]float64) {
	durs, selves := map[string][]float64{}, map[string][]float64{}
	for i, ns := range selfNanos(spans) {
		s := spans[i]
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		selves[s.Name] = append(selves[s.Name], float64(ns)/1e3)
	}
	dur, self = map[string]float64{}, map[string]float64{}
	for name := range durs {
		dur[name], self[name] = median(durs[name]), median(selves[name])
	}
	return dur, self
}

// Span names are the module names of the layers.
const (
	spanHTTP       = "serve_http" // the ServeHTTP call: the operation's root
	spanServe      = "serve"      // Session.Marginal/ReleaseLevel, or Registry.AddDatasetWith
	spanAccountant = "accountant" // Ledger.SpendBytes on the workload's backend
	spanRelease    = "release"    // Engine.Cells / Engine.Count (core's kernel runs inside)
	spanRNG        = "rng"        // NormalsSigma over the level's cells
	spanQuery      = "query"      // MarginalCountsInto
	spanHierarchy  = "hierarchy"  // Builder.BuildFromEdges under the exp-mech plan
	spanBipartite  = "bipartite"  // BinaryEdgeSource drained twice
)

// shadow replays one operation's layer calls beside the served path:
// its own pinned session on the same dataset, its own ledger of the
// workload's backend, its own engine on the same tree.
type shadow struct {
	w      *workload
	in     *inputs
	reg    *serve.Registry
	ds     *serve.Dataset
	sess   *serve.Session
	kernel *kernel
	ledger accountant.Ledger
	close  func() error
}

const shadowStream = 2000

func newShadow(w *workload, in *inputs, e *env, scratch string) (*shadow, error) {
	ds, err := e.reg.Dataset("d")
	if err != nil {
		return nil, err
	}
	k, err := newKernel(e.reg, ds.Tree(), in.seed)
	if err != nil {
		return nil, err
	}
	s := &shadow{w: w, in: in, reg: e.reg, ds: ds, kernel: k, close: func() error { return nil }}
	if w.wal {
		wal, err := accountant.OpenDurableLedger(totalBudget, filepath.Join(scratch, "shadow.wal"), accountant.DurableOptions{})
		if err != nil {
			return nil, err
		}
		s.ledger, s.close = wal, wal.Close
	} else if s.ledger, err = accountant.NewLedger(totalBudget); err != nil {
		return nil, err
	}
	return s, nil
}

// replayOp records the replayed descendants of one operation's root.
func (s *shadow) replayOp(t *tracer, root, op int) error {
	switch s.w.kind {
	case kindIngest:
		return s.replayIngest(t, root, op)
	case kindHitReplay:
		// The shadow re-reads the leader's stream too, so it hits.
		if s.sess == nil || s.sess.Seq() == replayLen {
			s.sess = s.ds.SessionAt(leaderStream)
		}
		_, err := t.replay(spanServe, root, op, s.query)
		return err
	}
	if s.sess == nil {
		s.sess = s.ds.SessionAt(shadowStream)
	}
	serveID, err := t.replay(spanServe, root, op, s.query)
	if err != nil {
		return err
	}
	if _, err := t.replay(spanAccountant, serveID, op, func() error {
		return s.ledger.SpendBytes(spendLabel, s.w.opCost())
	}); err != nil {
		return err
	}
	if s.w.endpoint == "level" {
		if _, err := t.replay(spanRelease, serveID, op, func() error { return s.kernel.releaseCount(s.w.level) }); err != nil {
			return err
		}
	}
	cellsID, err := t.replay(spanRelease, serveID, op, func() error { return s.kernel.releaseCells(s.w.level) })
	if err != nil {
		return err
	}
	if _, err := t.replay(spanRNG, cellsID, op, s.kernel.normals); err != nil {
		return err
	}
	if s.w.endpoint == "marginal" {
		_, err = t.replay(spanQuery, serveID, op, s.kernel.marginal)
	}
	return err
}

// query is the session call the handler makes for this workload.
func (s *shadow) query() error {
	if s.w.endpoint == "level" {
		_, err := s.sess.ReleaseLevel(s.w.level)
		return err
	}
	_, err := s.sess.Marginal(s.w.level, bipartite.Left)
	return err
}

func (s *shadow) replayIngest(t *tracer, root, op int) error {
	newSource := func() (bipartite.EdgeSource, error) {
		return bipartite.NewBinaryEdgeSource(bytes.NewReader(s.in.blob))
	}
	serveID, err := t.replay(spanServe, root, op, func() error {
		src, err := newSource()
		if err != nil {
			return err
		}
		_, err = s.reg.AddDatasetWith("shadow", src, serve.DatasetOptions{})
		return err
	})
	if err != nil {
		return err
	}
	if err := s.reg.RemoveDataset("shadow"); err != nil {
		return err
	}
	buildID, err := t.replay(spanHierarchy, serveID, op, func() error {
		src, err := newSource()
		if err != nil {
			return err
		}
		bisector, err := partition.NewExpMechBisector(phase1Epsilon, rng.New(s.in.seed))
		if err != nil {
			return err
		}
		_, err = hierarchy.BuildFromEdges(src, hierarchy.Options{Rounds: buildRounds, Bisector: bisector, Workers: 1})
		return err
	})
	if err != nil {
		return err
	}
	_, err = t.replay(spanBipartite, buildID, op, func() error {
		src, err := newSource()
		if err != nil {
			return err
		}
		_, err = drainTwice(src)
		return err
	})
	return err
}

// processUsage is the process's cumulative CPU time and allocator and
// collector counters.
type processUsage struct {
	cpu      time.Duration
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
}

func readUsage() (processUsage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return processUsage{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processUsage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
	}, nil
}

// traceFile is what trace.json holds.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Ops      int               `json:"ops"`
	Metrics  map[string]metric `json:"metrics"`
	Spans    []span            `json:"spans"`
}

// runTraced is the traced run: the per-layer metrics. It never reports
// an end-to-end metric — those are measured with tracing off.
func runTraced(w *workload, in *inputs, seconds float64, smoke bool, dir string) (res result, err error) {
	m := map[string]metric{}
	res = result{Correct: true, Metrics: m}
	note := func(breaches []string) {
		for _, b := range breaches {
			fmt.Fprintf(os.Stderr, "benchmark: %s: correctness breach: %s\n", w.name, b)
			res.Correct = false
		}
	}

	// The client's view, from a third-length measured run: the tail
	// percentiles that do not repeat well enough to gate, and the rounds'
	// own spread as this run's noise reading.
	ms, err := measure([]*workload{w}, in, seconds/3, smoke)
	if err != nil {
		return res, err
	}
	for _, r := range ms[0].rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		note(r.breaches)
	}
	m["client.latency_p99_ms"] = metric{median(ms[0].column(func(r roundResult) float64 { return r.latencyP99Ms })), "ms"}
	m["client.latency_max_ms"] = metric{slices.Max(ms[0].column(func(r roundResult) float64 { return r.latencyMaxMs })), "ms"}
	m["client.round_spread"] = metric{relativeRange(ms[0].column(func(r roundResult) float64 { return r.throughputOps })), "ratio"}

	ops, warm := w.traceOps, w.warmLimit(smoke)
	if smoke {
		ops = max(ops/10, 2)
	}

	untracedUS, breaches, err := untracedPass(w, in, ops, warm, m)
	if err != nil {
		return res, err
	}
	note(breaches)
	res.Attempted += ops

	// Traced pass: a root span around every ServeHTTP call, then the
	// operation's layer calls replayed beside it.
	r, err := startRound(w, in, scratchDir, 1, warm)
	if err != nil {
		return res, err
	}
	defer func() {
		r.finish()
		note(r.breaches)
	}()
	sh, err := newShadow(w, in, r.e, scratchDir)
	if err != nil {
		return res, err
	}
	defer sh.close()
	stream := r.streams[0]
	cacheBefore, bytesBefore := sh.ds.CacheStats(), stream.client().respBytes
	t := &tracer{epoch: time.Now()}
	for op := 0; op < ops; op++ {
		start, end, err := stream.next()
		res.Attempted++
		if err != nil {
			res.Failed++
			note([]string{fmt.Sprintf("traced op %d: %v", op, err)})
			continue
		}
		root := t.add(spanHTTP, 0, op, start, end, false)
		if err := sh.replayOp(t, root, op); err != nil {
			return res, err
		}
	}
	cacheAfter := sh.ds.CacheStats()
	// Every miss ran twice: once through the handler, once in the shadow.
	r.checkLedger(2 * ops)

	dur, self := layerTimes(t.spans)
	m["trace.end_to_end_us"] = metric{dur[spanHTTP], "us"}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	m["trace.sum_of_stages_us"] = metric{sum, "us"}
	m["trace.unattributed_share"] = metric{self[spanServe] / dur[spanHTTP], "ratio"}
	m["trace.overhead_share"] = metric{(dur[spanHTTP] - untracedUS) / untracedUS, "ratio"}
	m["serve_http.self_us"] = metric{self[spanHTTP], "us"}
	m["serve_http.resp_bytes"] = metric{float64(stream.client().respBytes-bytesBefore) / float64(ops), "B"}
	m["serve.session_us"] = metric{dur[spanServe], "us"}
	m["serve.self_us"] = metric{self[spanServe], "us"}
	lookups := float64(cacheAfter.Hits-cacheBefore.Hits) + float64(cacheAfter.Misses-cacheBefore.Misses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(cacheAfter.Hits-cacheBefore.Hits) / lookups
	}
	m["serve.cache_hit_ratio"] = metric{hitRatio, "ratio"}
	m["serve.cache_entries"] = metric{float64(cacheAfter.Entries), "count"}
	m["serve.failed_ops"] = metric{float64(res.Failed), "count"}
	compactions := 0
	if st, ok := sh.ds.Durability(); ok {
		compactions = st.Compactions
	}
	m["accountant.wal.compactions"] = metric{float64(compactions), "count"}

	// The fixed probes: the same for every workload, so each traced run
	// reports every layer.
	loopbackUS, err := probeLoopback(w, in, r.e)
	if err != nil {
		return res, err
	}
	m["serve_http.loopback_rtt_us"] = metric{loopbackUS, "us"}
	if err := probeKernel(sh.kernel, m); err != nil {
		return res, err
	}
	if err := probeIngest(in, r.e, m); err != nil {
		return res, err
	}
	if err := probeLedgers(scratchDir, m); err != nil {
		return res, err
	}
	if m["accountant.spend_failed"].Value > 0 {
		note([]string{"a ledger probe spend failed"})
	}

	return res, writeTrace(dir, traceFile{Workload: w.name, Seed: in.seed, Ops: ops, Metrics: m, Spans: t.spans})
}

// untracedPass runs ops operations from a single client with no spans:
// the baseline the traced pass is compared with, and the process-level
// counters. It returns the median op time in µs.
func untracedPass(w *workload, in *inputs, ops int, warm phaseLimit, m map[string]metric) (medianUS float64, breaches []string, err error) {
	r, err := startRound(w, in, scratchDir, 1, warm)
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		r.finish()
		breaches = r.breaches
	}()
	before, err := readUsage()
	if err != nil {
		return 0, nil, err
	}
	log := runPhase(r.streams, phaseLimit{ops: ops})[0]
	after, err := readUsage()
	if err != nil {
		return 0, nil, err
	}
	if log.firstErr != nil {
		return 0, nil, fmt.Errorf("untraced pass: %w", log.firstErr)
	}
	r.checkLedger(ops)
	m["serve_http.allocs_per_op"] = metric{float64(after.mallocs-before.mallocs) / float64(ops), "count"}
	m["proc.cpu_us_per_op"] = metric{float64((after.cpu - before.cpu).Microseconds()) / float64(ops), "us"}
	m["proc.gc_cycles"] = metric{float64(after.gcCycles - before.gcCycles), "count"}
	m["proc.gc_pause_ms"] = metric{float64((after.gcPause - before.gcPause).Nanoseconds()) / 1e6, "ms"}
	return median(nanosToMillis(log.nanos)) * 1e3, nil, nil
}

// writeTrace writes the spans kept in memory, once, as dir/trace.json.
func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(tf.Spans), path)
	return nil
}
