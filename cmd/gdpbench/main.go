// Command gdpbench regenerates the paper's evaluation. Every experiment
// in DESIGN.md §5 — Figure 1 plus ablations A1–A6 — is a named entry;
// gdpbench prints its tables (markdown), ASCII figures, and the
// paper-vs-measured notes, and can dump CSVs for external plotting.
//
// Usage:
//
//	gdpbench -exp figure1
//	gdpbench -exp all -quick
//	gdpbench -exp figure1 -preset dblp-scaled -trials 20 -csv out/
//	gdpbench -exp all -quick -benchjson out/
//
// -benchjson writes one machine-readable BENCH_<experiment>.json per
// experiment (configuration plus wall time), the perf-trajectory record
// CI and regression tooling diff across commits.
//
// # Streamed ingest: -edges
//
//	gdpbench -edges dblp.tsv -rounds 9
//	gdpbench -edges dblp.bpg -streamverify -benchjson out/
//
// -edges streams an edge file through the chunked two-pass build
// (hierarchy.BuildFromEdges) instead of running experiments: pass 1
// accumulates side degrees, pass 2 feeds the sharded cell aggregation,
// and the file's edges are never materialized — not as a pair list and
// not as either CSR direction — so peak memory is O(chunk + sides +
// 4^rounds), independent of the edge count. The format is sniffed from
// the first bytes ("BPG1" means the compact binary codec, anything else
// is TSV). TSV inputs must not repeat pairs: the streamed build counts
// every line while the in-memory loader deduplicates, so deduplicate
// first (e.g. sort -u) — -streamverify catches the divergence. With
// -benchjson a BENCH_stream.json records the ingest rate
// (edges/sec over the whole two-pass build). -streamverify additionally
// loads the same file in memory, runs the release pipeline both ways
// with one seed, and fails unless the artifacts are byte-identical —
// the self-checking mode CI's stream smoke job runs; skip it for files
// that do not fit in RAM, which is what -edges exists for.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dp"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/release"
	"repro/internal/rng"
)

// benchRecord is the machine-readable result of one timed experiment
// run. Preset is the resolved dataset name, never empty; Trials echoes
// the -trials override, where 0 means the experiment's own default.
type benchRecord struct {
	Experiment string  `json:"experiment"`
	Preset     string  `json:"preset"`
	Quick      bool    `json:"quick"`
	Trials     int     `json:"trials"`
	Seed       uint64  `json:"seed"`
	Workers    int     `json:"workers"`
	WallMS     float64 `json:"wall_ms"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	UnixMS     int64   `json:"unix_ms"`
}

// phase2Record is the Phase-2 throughput record written alongside the
// per-experiment timings: the batched cell-histogram release at the
// deepest level of a nine-round tree (the BenchmarkReleaseCells setup)
// and the Figure-1 trial loop serial vs fanned out, so BENCH_phase2.json
// tracks noise-injection and trial throughput across commits.
type phase2Record struct {
	// Cells is the released histogram size (4^9).
	Cells int `json:"cells"`
	// ReleaseCellsNsPerOp is the mean wall time of one batched release
	// through the reusable-buffer engine path; CellsPerSec is the implied
	// noise throughput. ReleaseCellsParNsPerOp is the same release with
	// the noise pass sharded across Workers goroutines (bit-identical
	// output; flat on a 1-CPU runner).
	ReleaseCellsNsPerOp    float64 `json:"release_cells_ns_per_op"`
	CellsPerSec            float64 `json:"release_cells_per_sec"`
	ReleaseCellsParNsPerOp float64 `json:"release_cells_parallel_ns_per_op"`
	// TrialsSerialMS and TrialsParallelMS time the same Figure-1 trial
	// loop with one lane and with Workers lanes (bit-identical outputs).
	Trials           int     `json:"figure1_trials"`
	TrialsSerialMS   float64 `json:"figure1_trials_serial_ms"`
	TrialsParallelMS float64 `json:"figure1_trials_parallel_ms"`
	// StrategyReleaseMS times one full pipeline run (hierarchy + count
	// + cell releases) per registered release strategy, keyed by
	// strategy name — the record that keeps alternative partitioner ×
	// noise compositions on the perf trajectory. benchdiff ignores
	// unknown fields, so older baselines diff cleanly.
	StrategyReleaseMS map[string]float64 `json:"strategy_release_ms,omitempty"`
	Workers           int                `json:"workers"`
	GOMAXPROCS        int                `json:"gomaxprocs"`
	NumCPU            int                `json:"num_cpu"`
	Seed              uint64             `json:"seed"`
	UnixMS            int64              `json:"unix_ms"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gdpbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gdpbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "figure1", fmt.Sprintf("experiment name or 'all' %v", experiments.Names()))
		preset   = fs.String("preset", "", "dataset preset override (default dblp-scaled, dblp-tiny with -quick)")
		seed     = fs.Uint64("seed", 1, "random seed")
		trials   = fs.Int("trials", 0, "trial count override (0 = experiment default)")
		quick    = fs.Bool("quick", false, "shrink datasets and grids for a fast run")
		csvDir   = fs.String("csv", "", "also write each table as CSV into this directory")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "experiment parallelism: trial fan-out and phase-1 builds (results identical for any value)")
		benchDir = fs.String("benchjson", "", "write a machine-readable BENCH_<experiment>.json per experiment into this directory")
		strategy = fs.String("strategy", "all", "release strategy for the per-strategy sweep in BENCH_phase2.json: a registered name, or 'all' "+fmt.Sprint(release.Strategies.Names()))

		edgesFile    = fs.String("edges", "", "stream an edge file (TSV or binary graph) through the chunked build instead of running experiments")
		rounds       = fs.Int("rounds", 9, "specialization rounds for -edges")
		streamVerify = fs.Bool("streamverify", false, "with -edges: also run the in-memory path and fail unless the releases are byte-identical")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gdpbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gdpbench: memprofile:", err)
			}
		}()
	}
	if *edgesFile != "" {
		return runEdges(*edgesFile, *rounds, *workers, *seed, *streamVerify, *benchDir)
	}

	opts := repro.ExperimentOptions{
		Preset:  *preset,
		Seed:    *seed,
		Trials:  *trials,
		Quick:   *quick,
		Workers: *workers,
	}
	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		start := time.Now()
		report, err := repro.RunExperiment(name, opts)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
		elapsed := time.Since(start)
		if err := emit(report, *csvDir); err != nil {
			return err
		}
		if *benchDir != "" {
			rec := benchRecord{
				Experiment: name,
				Preset:     opts.EffectivePreset(),
				Quick:      *quick,
				Trials:     *trials,
				Seed:       *seed,
				Workers:    *workers,
				WallMS:     float64(elapsed.Nanoseconds()) / 1e6,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
				NumCPU:     runtime.NumCPU(),
				UnixMS:     start.UnixMilli(),
			}
			if err := writeBenchJSON(*benchDir, rec); err != nil {
				return err
			}
		}
	}
	// The Phase-2 and serving throughput records ride along with the
	// full perf-trajectory sweep only, so single-experiment bench runs
	// stay proportional to what was asked.
	if *benchDir != "" && *exp == "all" {
		if err := writePhase2Bench(*benchDir, *seed, *workers, *strategy); err != nil {
			return err
		}
		if err := writeServeBench(*benchDir, *seed, *workers); err != nil {
			return err
		}
	}
	return nil
}

// serveRecord is the serving-layer throughput record: an in-process
// registry ingests the tiny dataset and concurrent sessions drain a
// query workload; QueriesPerSec is the aggregate throughput and
// P50QueryMS the median single-query latency inside a session (one
// ledger debit + one batched histogram release + marginal
// post-processing per query).
type serveRecord struct {
	Edges      int64   `json:"edges"`
	Sessions   int     `json:"sessions"`
	Queries    int     `json:"queries"`
	Level      int     `json:"level"`
	IngestMS   float64 `json:"ingest_ms"`
	WallMS     float64 `json:"wall_ms"`
	QueriesSec float64 `json:"queries_per_sec"`
	P50QueryMS float64 `json:"p50_query_ms"`
	// CacheMissNs and CacheHitNs compare one marginal query computed
	// fresh (ledger debit + Phase 2 + cache insert) against the same
	// query replayed out of the response cache (no debit, no draw);
	// CacheSpeedup is their ratio.
	CacheMissNs  float64 `json:"cache_miss_ns_per_op"`
	CacheHitNs   float64 `json:"cache_hit_ns_per_op"`
	CacheSpeedup float64 `json:"cache_speedup"`
	// LedgerBackend stamps which privacy-ledger implementation admitted
	// the workload ("mem", "wal", or "remote"): a ledger debit sits on
	// the query path, so throughput across backends is not comparable
	// and benchdiff refuses to gate across a backend change.
	LedgerBackend string `json:"ledger_backend"`
	Workers       int    `json:"workers"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`
	Seed          uint64 `json:"seed"`
	UnixMS        int64  `json:"unix_ms"`
}

// writeServeBench measures the serving layer end to end in-process and
// writes BENCH_serve.json.
func writeServeBench(dir string, seed uint64, workers int) error {
	const (
		sessions   = 4
		perSession = 64
		level      = 2
	)
	cfg, err := datagen.ByName(datagen.PresetDBLPTiny, seed+1)
	if err != nil {
		return err
	}
	stream, err := datagen.NewStream(cfg)
	if err != nil {
		return err
	}
	reg, err := repro.OpenRegistry(repro.ServeConfig{
		// Ample room for the whole workload: the bench measures
		// throughput, not exhaustion.
		Budget:   repro.Params{Epsilon: 16, Delta: 1e-4},
		PerQuery: repro.Params{Epsilon: 0.01, Delta: 1e-8},
		Rounds:   6,
		Seed:     seed,
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	defer reg.Close()

	ingestStart := time.Now()
	ds, err := reg.AddDataset("bench", stream)
	if err != nil {
		return err
	}
	ingestMS := float64(time.Since(ingestStart).Nanoseconds()) / 1e6

	durations := make([][]time.Duration, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := ds.SessionAt(uint64(i))
			durations[i] = make([]time.Duration, 0, perSession)
			for q := 0; q < perSession; q++ {
				qStart := time.Now()
				if _, err := sess.Marginal(level, repro.Left); err != nil {
					errs[i] = err
					return
				}
				durations[i] = append(durations[i], time.Since(qStart))
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("serve bench query: %w", err)
		}
	}

	var all []time.Duration
	for _, d := range durations {
		all = append(all, d...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p50 := all[len(all)/2]

	// Cache hit vs miss: a fresh pinned stream computes its sequence
	// (misses: ledger debit + Phase 2 + cache insert), then a second
	// session replays the identical (stream, seq, query) keys out of the
	// response cache (hits: no debit, no draw).
	const cacheProbe = 256
	missSess := ds.SessionAt(1 << 20)
	missStart := time.Now()
	for q := 0; q < cacheProbe; q++ {
		if _, err := missSess.Marginal(level, repro.Left); err != nil {
			return fmt.Errorf("serve bench cache-miss probe: %w", err)
		}
	}
	missNs := float64(time.Since(missStart).Nanoseconds()) / cacheProbe
	hitSess := ds.SessionAt(1 << 20)
	hitStart := time.Now()
	for q := 0; q < cacheProbe; q++ {
		if _, err := hitSess.Marginal(level, repro.Left); err != nil {
			return fmt.Errorf("serve bench cache-hit probe: %w", err)
		}
	}
	hitNs := float64(time.Since(hitStart).Nanoseconds()) / cacheProbe

	rec := serveRecord{
		Edges:         ds.Stats().NumEdges,
		Sessions:      sessions,
		Queries:       len(all),
		Level:         level,
		IngestMS:      ingestMS,
		WallMS:        float64(wall.Nanoseconds()) / 1e6,
		QueriesSec:    float64(len(all)) / wall.Seconds(),
		P50QueryMS:    float64(p50.Nanoseconds()) / 1e6,
		CacheMissNs:   missNs,
		CacheHitNs:    hitNs,
		CacheSpeedup:  missNs / hitNs,
		LedgerBackend: ds.LedgerBackend(),
		Workers:       workers,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Seed:          seed,
		UnixMS:        start.UnixMilli(),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_serve.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("(serve bench record written to %s)\n\n", path)
	return nil
}

// streamRecord is the machine-readable result of one -edges ingest run:
// the whole two-pass streamed build timed end to end, with EdgesPerSec =
// NumEdges / wall (both passes included).
type streamRecord struct {
	File       string  `json:"file"`
	Format     string  `json:"format"`
	Edges      int64   `json:"edges"`
	NumLeft    int     `json:"num_left"`
	NumRight   int     `json:"num_right"`
	Rounds     int     `json:"rounds"`
	Workers    int     `json:"workers"`
	WallMS     float64 `json:"wall_ms"`
	EdgesSec   float64 `json:"edges_per_sec"`
	Verified   bool    `json:"verified"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	UnixMS     int64   `json:"unix_ms"`
}

// runEdges is the -edges mode: stream the file through the chunked build,
// report the ingest rate, and optionally pin the result against the
// in-memory path.
func runEdges(path string, rounds, workers int, seed uint64, verify bool, benchDir string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var magic [4]byte
	n, err := f.Read(magic[:])
	if err != nil && n == 0 {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	format := "tsv"
	if n == 4 && string(magic[:]) == "BPG1" {
		format = "binary"
	}

	var src bipartite.EdgeSource
	if format == "binary" {
		src, err = bipartite.NewBinaryEdgeSource(f)
	} else {
		src, err = bipartite.NewTSVEdgeSource(f)
	}
	if err != nil {
		return fmt.Errorf("opening %s source %s: %w", format, path, err)
	}

	start := time.Now()
	tree, err := hierarchy.BuildFromEdges(src, hierarchy.Options{
		Rounds:   rounds,
		Bisector: partition.BalancedBisector{},
		Workers:  workers,
	})
	if err != nil {
		return fmt.Errorf("streamed build of %s: %w", path, err)
	}
	wall := time.Since(start)
	stats := tree.DatasetStats()
	edgesSec := float64(stats.NumEdges) / wall.Seconds()
	fmt.Printf("## streamed ingest — %s (%s)\n\n", path, format)
	fmt.Printf("dataset: %s\n", stats)
	fmt.Printf("build:   rounds=%d workers=%d wall=%.1fms ingest=%.0f edges/s (two passes, O(chunk+sides) peak)\n",
		rounds, workers, float64(wall.Nanoseconds())/1e6, edgesSec)

	verified := false
	if verify {
		if err := verifyStreamedRelease(f, format, tree, rounds, workers, seed, src); err != nil {
			return err
		}
		verified = true
		fmt.Println("verify:  streamed release is byte-identical to the in-memory path")
	}
	fmt.Println()

	if benchDir != "" {
		rec := streamRecord{
			File:       path,
			Format:     format,
			Edges:      stats.NumEdges,
			NumLeft:    stats.NumLeft,
			NumRight:   stats.NumRight,
			Rounds:     rounds,
			Workers:    workers,
			WallMS:     float64(wall.Nanoseconds()) / 1e6,
			EdgesSec:   edgesSec,
			Verified:   verified,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			UnixMS:     start.UnixMilli(),
		}
		if err := os.MkdirAll(benchDir, 0o755); err != nil {
			return err
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		recPath := filepath.Join(benchDir, "BENCH_stream.json")
		if err := os.WriteFile(recPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("(stream bench record written to %s)\n\n", recPath)
	}
	return nil
}

// verifyStreamedRelease loads the file in memory, checks the streamed
// tree's grouping bit-identical to the in-memory build, and runs the full
// release pipeline down both paths, failing on any byte difference.
func verifyStreamedRelease(f *os.File, format string, streamedTree *hierarchy.Tree, rounds, workers int, seed uint64, src bipartite.EdgeSource) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var g *bipartite.Graph
	var err error
	if format == "binary" {
		g, err = bipartite.DecodeBinary(f)
	} else {
		g, err = bipartite.LoadTSV(f)
	}
	if err != nil {
		return fmt.Errorf("in-memory load for -streamverify: %w", err)
	}

	memTree, err := hierarchy.Build(g, hierarchy.Options{
		Rounds:   rounds,
		Bisector: partition.BalancedBisector{},
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	var streamedEnc, memEnc bytes.Buffer
	if err := streamedTree.EncodeBinary(&streamedEnc); err != nil {
		return err
	}
	if err := memTree.EncodeBinary(&memEnc); err != nil {
		return err
	}
	if !bytes.Equal(streamedEnc.Bytes(), memEnc.Bytes()) {
		return fmt.Errorf("streamed tree differs from in-memory build (duplicate edge lines in the input? the streamed path counts every line, the in-memory loader deduplicates)")
	}

	newPipeline := func() (*release.Pipeline, error) {
		return release.New(dp.Params{Epsilon: 0.5, Delta: 1e-5},
			release.WithRounds(rounds),
			release.WithSeed(seed),
			release.WithCellHistograms(true),
			release.WithWorkers(workers),
		)
	}
	pMem, err := newPipeline()
	if err != nil {
		return err
	}
	relMem, err := pMem.Run(g)
	if err != nil {
		return err
	}
	pStream, err := newPipeline()
	if err != nil {
		return err
	}
	relStream, err := pStream.RunFromEdges(src)
	if err != nil {
		return err
	}
	var a, b bytes.Buffer
	if err := relMem.WriteJSON(&a, true); err != nil {
		return err
	}
	if err := relStream.WriteJSON(&b, true); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("streamed release differs from in-memory release")
	}
	return nil
}

// writePhase2Bench measures the Phase-2 release engine in-process and
// writes BENCH_phase2.json: the batched deepest-level histogram release
// and the parallel trial fan-out.
func writePhase2Bench(dir string, seed uint64, workers int, strategy string) error {
	g, err := datagen.Generate(datagen.DBLPTiny(seed))
	if err != nil {
		return err
	}
	tree, err := hierarchy.Build(g, hierarchy.Options{Rounds: 9, Bisector: partition.BalancedBisector{}})
	if err != nil {
		return err
	}
	cells, err := tree.NumCells(0)
	if err != nil {
		return err
	}
	src := rng.New(seed + 1)
	noise := core.Noise{Mech: core.MechGaussian, Calib: core.CalibrationClassical, Budget: dp.Params{Epsilon: 0.5, Delta: 1e-5}}
	var rel core.CellRelease
	const releaseIters = 25
	start := time.Now()
	for i := 0; i < releaseIters; i++ {
		if err := core.ReleaseCells(&rel, tree, 0, noise, src, 1); err != nil {
			return err
		}
	}
	nsPerOp := float64(time.Since(start).Nanoseconds()) / releaseIters

	parStart := time.Now()
	for i := 0; i < releaseIters; i++ {
		if err := core.ReleaseCells(&rel, tree, 0, noise, src, workers); err != nil {
			return err
		}
	}
	parNsPerOp := float64(time.Since(parStart).Nanoseconds()) / releaseIters

	cfg, err := experiments.DefaultFigure1Config(experiments.Options{Quick: true, Seed: seed, Workers: 1})
	if err != nil {
		return err
	}
	cfg.Trials = 8
	timeTrials := func(w int) (float64, error) {
		cfg.Workers = w
		t0 := time.Now()
		if _, err := experiments.RunFigure1On(g, cfg); err != nil {
			return 0, err
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e6, nil
	}
	serialMS, err := timeTrials(1)
	if err != nil {
		return err
	}
	parallelMS, err := timeTrials(workers)
	if err != nil {
		return err
	}

	// Per-strategy sweep: one full pipeline run per registered strategy
	// (or just -strategy), timed over a few iterations on the same tiny
	// graph, so composition overheads (community label propagation, pure
	// Laplace cells) stay visible across commits.
	names := release.Strategies.Names()
	if strategy != "all" {
		if _, err := release.Strategies.Resolve(strategy); err != nil {
			return err
		}
		names = []string{strategy}
	}
	stratMS := make(map[string]float64, len(names))
	const stratIters = 5
	for _, name := range names {
		p, err := release.New(dp.Params{Epsilon: 0.5, Delta: 1e-5},
			release.WithStrategy(name),
			release.WithRounds(6),
			release.WithSeed(seed),
			release.WithCellHistograms(true),
			release.WithWorkers(workers),
		)
		if err != nil {
			return fmt.Errorf("strategy %s: %w", name, err)
		}
		t0 := time.Now()
		for i := 0; i < stratIters; i++ {
			if _, err := p.Run(g); err != nil {
				return fmt.Errorf("strategy %s: %w", name, err)
			}
		}
		stratMS[name] = float64(time.Since(t0).Nanoseconds()) / 1e6 / stratIters
	}

	rec := phase2Record{
		Cells:                  cells,
		ReleaseCellsNsPerOp:    nsPerOp,
		CellsPerSec:            float64(cells) / (nsPerOp / 1e9),
		ReleaseCellsParNsPerOp: parNsPerOp,
		Trials:                 cfg.Trials,
		TrialsSerialMS:         serialMS,
		TrialsParallelMS:       parallelMS,
		StrategyReleaseMS:      stratMS,
		Workers:                workers,
		GOMAXPROCS:             runtime.GOMAXPROCS(0),
		NumCPU:                 runtime.NumCPU(),
		Seed:                   seed,
		UnixMS:                 time.Now().UnixMilli(),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_phase2.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("(phase-2 bench record written to %s)\n\n", path)
	return nil
}

// writeBenchJSON writes one experiment's timing record to
// dir/BENCH_<experiment>.json.
func writeBenchJSON(dir string, rec benchRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", sanitize(rec.Experiment)))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("(bench record written to %s)\n\n", path)
	return nil
}

func emit(report *repro.ExperimentReport, csvDir string) error {
	fmt.Printf("## %s\n\n", report.Title)
	for _, fig := range report.Figures {
		fmt.Println(fig)
	}
	for ti, table := range report.Tables {
		fmt.Println(table.Markdown())
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			name := fmt.Sprintf("%s_%d.csv", sanitize(report.Name), ti)
			path := filepath.Join(csvDir, name)
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("(csv written to %s)\n\n", path)
		}
	}
	for _, note := range report.Notes {
		fmt.Printf("> %s\n", note)
	}
	fmt.Println()
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
