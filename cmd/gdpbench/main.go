// Command gdpbench regenerates the paper's evaluation. Every experiment
// in the internal/experiments package comment — Figure 1 plus ablations
// A1–A6 — is a named entry; gdpbench prints its tables (markdown), ASCII
// figures, and the paper-vs-measured notes, and can dump CSVs for
// external plotting.
//
// Usage:
//
//	gdpbench -exp figure1
//	gdpbench -exp all -quick
//	gdpbench -exp figure1 -preset dblp-scaled -trials 20 -csv out/
//
// # Streamed ingest: -edges
//
//	gdpbench -edges dblp.tsv -rounds 9
//	gdpbench -edges dblp.bpg -streamverify
//
// -edges streams an edge file through the two-pass build
// (hierarchy.BuildFromEdges, the one hierarchy build) instead of running
// experiments: pass 1 accumulates side degrees, pass 2 feeds the sharded
// cell aggregation, and the file's edges are never materialized — not as
// a pair list and not as either CSR direction — so peak memory is
// O(chunk + sides + 4^rounds), independent of the edge count. The format
// is sniffed from the first bytes ("BPG1" means the compact binary codec,
// anything else is TSV). TSV inputs must not repeat pairs: the streamed
// file counts every line while the Graph loader deduplicates, so
// deduplicate first (e.g. sort -u) — -streamverify catches the
// divergence. The ingest rate (edges/sec over the whole two-pass build)
// is printed. -streamverify additionally loads the same file through the
// de-duplicating Graph loader and checks it against the streamed file
// over the one build: the tree built over the loaded Graph must encode
// byte-identically to the streamed tree, and the release pipeline run on
// the Graph and over the file with one seed must produce byte-identical
// artifacts. It is the self-checking mode CI's stream smoke job runs;
// skip it for files that do not fit in RAM, which is what -edges exists
// for.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
	"repro/internal/bipartite"
	"repro/internal/dp"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/release"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdpbench:", err)
		os.Exit(1)
	}
}

// run parses args and writes the experiments' (or -edges') report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gdpbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "figure1", fmt.Sprintf("experiment name or 'all' %v", experiments.Names()))
		preset  = fs.String("preset", "", "dataset preset override (default dblp-scaled, dblp-tiny with -quick)")
		seed    = fs.Uint64("seed", 1, "random seed")
		trials  = fs.Int("trials", 0, "trial count override (0 = experiment default)")
		quick   = fs.Bool("quick", false, "shrink datasets and grids for a fast run")
		csvDir  = fs.String("csv", "", "also write each table as CSV into this directory")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "experiment parallelism: trial fan-out and phase-1 builds (results identical for any value)")

		edgesFile    = fs.String("edges", "", "stream an edge file (TSV or binary graph) through the chunked build instead of running experiments")
		rounds       = fs.Int("rounds", 9, "specialization rounds for -edges")
		streamVerify = fs.Bool("streamverify", false, "with -edges: also load the file through the de-duplicating Graph loader and fail unless its tree and release are byte-identical to the streamed file's")

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
		return runEdges(w, *edgesFile, *rounds, *workers, *seed, *streamVerify)
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
		report, err := repro.RunExperiment(name, opts)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
		if err := emit(w, report, *csvDir); err != nil {
			return err
		}
	}
	return nil
}

// runEdges is the -edges mode: stream the file through the chunked build,
// report the ingest rate, and optionally pin the result against the
// de-duplicating Graph loader.
func runEdges(w io.Writer, path string, rounds, workers int, seed uint64, verify bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	src, err := repro.OpenEdgeSourceFile(f)
	if err != nil {
		return fmt.Errorf("opening edge source %s: %w", path, err)
	}
	format := "tsv"
	if _, ok := src.(*bipartite.BinaryEdgeSource); ok {
		format = "binary"
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
	fmt.Fprintf(w, "## streamed ingest — %s (%s)\n\n", path, format)
	fmt.Fprintf(w, "dataset: %s\n", stats)
	fmt.Fprintf(w, "build:   rounds=%d workers=%d wall=%.1fms ingest=%.0f edges/s (two passes, O(chunk+sides) peak)\n",
		rounds, workers, float64(wall.Nanoseconds())/1e6, edgesSec)

	if verify {
		if err := verifyStreamedRelease(f, tree, rounds, workers, seed, src); err != nil {
			return err
		}
		fmt.Fprintln(w, "verify:  the loaded Graph's tree and release are byte-identical to the streamed file's")
	}
	fmt.Fprintln(w)
	return nil
}

// verifyStreamedRelease loads the file through the de-duplicating Graph
// loader, checks the tree built over that Graph bit-identical to the
// streamed tree, and runs the full release pipeline on the Graph and over
// the file, failing on any byte difference.
func verifyStreamedRelease(f *os.File, streamedTree *hierarchy.Tree, rounds, workers int, seed uint64, src bipartite.EdgeSource) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	load := bipartite.LoadTSV
	if _, ok := src.(*bipartite.BinaryEdgeSource); ok {
		load = bipartite.DecodeBinary
	}
	g, err := load(f)
	if err != nil {
		return fmt.Errorf("graph load for -streamverify: %w", err)
	}

	graphTree, err := hierarchy.BuildFromEdges(bipartite.NewGraphSource(g), hierarchy.Options{
		Rounds:   rounds,
		Bisector: partition.BalancedBisector{},
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	var streamedEnc, graphEnc bytes.Buffer
	if err := streamedTree.EncodeBinary(&streamedEnc); err != nil {
		return err
	}
	if err := graphTree.EncodeBinary(&graphEnc); err != nil {
		return err
	}
	if !bytes.Equal(streamedEnc.Bytes(), graphEnc.Bytes()) {
		return fmt.Errorf("streamed tree differs from the loaded graph's (duplicate edge lines in the input? the streamed file counts every line, the graph loader deduplicates)")
	}

	newPipeline := func() (*release.Pipeline, error) {
		return release.New(dp.Params{Epsilon: 0.5, Delta: 1e-5},
			release.WithRounds(rounds),
			release.WithSeed(seed),
			release.WithCellHistograms(true),
			release.WithWorkers(workers),
		)
	}
	pGraph, err := newPipeline()
	if err != nil {
		return err
	}
	relGraph, err := pGraph.Run(g)
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
	if err := relGraph.WriteJSON(&a, true); err != nil {
		return err
	}
	if err := relStream.WriteJSON(&b, true); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("streamed release differs from the loaded graph's release")
	}
	return nil
}

func emit(w io.Writer, report *repro.ExperimentReport, csvDir string) error {
	fmt.Fprintf(w, "## %s\n\n", report.Title)
	for _, fig := range report.Figures {
		fmt.Fprintln(w, fig)
	}
	for ti, table := range report.Tables {
		fmt.Fprintln(w, table.Markdown())
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			name := fmt.Sprintf("%s_%d.csv", sanitize(report.Name), ti)
			path := filepath.Join(csvDir, name)
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "(csv written to %s)\n\n", path)
		}
	}
	for _, note := range report.Notes {
		fmt.Fprintf(w, "> %s\n", note)
	}
	fmt.Fprintln(w)
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
