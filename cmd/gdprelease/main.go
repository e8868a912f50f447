// Command gdprelease runs the full two-phase group-DP disclosure pipeline
// on a dataset and emits the multi-level release artifact as JSON.
//
// Usage:
//
//	gdprelease -preset dblp-tiny -eps 0.9 -rounds 6 -out release.json
//	gdprelease -in dblp.bpg -format binary -eps 0.5 -cells -audit
//	gdprelease -in edges.tsv -eps 0.9 -mode composed-basic -include-true
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/release"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gdprelease:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gdprelease", flag.ContinueOnError)
	var (
		preset      = fs.String("preset", "", "generate input from a preset instead of reading a file")
		in          = fs.String("in", "", "input graph path (tsv or binary)")
		format      = fs.String("format", "tsv", "input format when -in is set: tsv or binary")
		out         = fs.String("out", "", "output path; empty writes to stdout")
		eps         = fs.Float64("eps", 0.9, "group privacy budget εg per level")
		delta       = fs.Float64("delta", 1e-5, "Gaussian δ")
		rounds      = fs.Int("rounds", 9, "specialization rounds (hierarchy depth)")
		levels      = fs.String("levels", "", "comma-separated levels to release; default 0..rounds-2")
		mode        = fs.String("mode", "per-level", "budget mode: per-level, composed-basic, composed-advanced, composed-rdp")
		model       = fs.String("model", "cells", "adjacency model: cells, node-groups, individual")
		calib       = fs.String("calib", "classical", "gaussian calibration: classical or analytic")
		mech        = fs.String("mech", "gaussian", "noise mechanism: gaussian, laplace, geometric (the release strategy quadtree-<mech>)")
		phase1      = fs.Float64("phase1-eps", 0.1, "per-cut exponential-mechanism budget; 0 = non-private grouping")
		seed        = fs.Uint64("seed", 0, "random seed; 0 draws one from OS entropy")
		cells       = fs.Bool("cells", false, "also release per-level cell histograms")
		includeTrue = fs.Bool("include-true", false, "include exact counts in the JSON (curator-side output)")
		audit       = fs.Bool("audit", false, "print the privacy audit trail to stderr")
		workers     = fs.Int("workers", runtime.GOMAXPROCS(0), "phase-1 build parallelism (the release is identical for any value)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := loadGraph(*preset, *in, *format, *seed)
	if err != nil {
		return err
	}

	effSeed := *seed
	if effSeed == 0 {
		if effSeed, err = repro.NewRandomSeed(); err != nil {
			return err
		}
	}

	opts := []repro.Option{
		repro.WithRounds(*rounds),
		repro.WithSeed(effSeed),
		repro.WithPhase1Epsilon(*phase1),
		repro.WithCellHistograms(*cells),
		repro.WithWorkers(*workers),
		repro.WithStrategy("quadtree-" + *mech),
	}
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	opts = append(opts, repro.WithMode(m))
	gm, err := parseModel(*model)
	if err != nil {
		return err
	}
	opts = append(opts, repro.WithModel(gm))
	cal, err := parseCalib(*calib)
	if err != nil {
		return err
	}
	opts = append(opts, repro.WithCalibration(cal))
	if *levels != "" {
		lv, err := parseLevels(*levels)
		if err != nil {
			return err
		}
		opts = append(opts, repro.WithLevels(lv))
	}

	pipe, err := repro.NewPipeline(repro.Params{Epsilon: *eps, Delta: *delta}, opts...)
	if err != nil {
		return err
	}
	rel, err := pipe.Run(g)
	if err != nil {
		return err
	}

	if *audit {
		fmt.Fprintf(os.Stderr, "dataset: %s\n", rel.Dataset)
		fmt.Fprintf(os.Stderr, "phase-1 ε: %.4f  sequential ε: %.4f  parallel ε: %.4f\n",
			rel.Phase1Epsilon, rel.SequentialCostEpsilon, rel.ParallelCostEpsilon)
		for _, op := range rel.Audit {
			fmt.Fprintf(os.Stderr, "  %3d. %-24s %s\n", op.Seq, op.Label, op.Cost)
		}
	}

	// The output file is created only once there is an artifact to write,
	// and its Close error is run's error.
	w := os.Stdout
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}
	return rel.WriteJSON(w, *includeTrue)
}

func loadGraph(preset, in, format string, seed uint64) (*repro.Graph, error) {
	switch {
	case preset != "" && in != "":
		return nil, fmt.Errorf("set either -preset or -in, not both")
	case preset != "":
		return repro.GenerateDataset(preset, seed+1)
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if format == "binary" {
			return repro.DecodeBinary(f)
		}
		return repro.LoadTSV(f)
	default:
		return nil, fmt.Errorf("one of -preset or -in is required")
	}
}

func parseMode(s string) (repro.Mode, error) {
	switch s {
	case "per-level":
		return release.ModePerLevel, nil
	case "composed-basic":
		return release.ModeComposedBasic, nil
	case "composed-advanced":
		return release.ModeComposedAdvanced, nil
	case "composed-rdp":
		return release.ModeComposedRDP, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

func parseModel(s string) (repro.GroupModel, error) {
	switch s {
	case "cells":
		return core.ModelCells, nil
	case "node-groups":
		return core.ModelNodeGroups, nil
	case "individual":
		return core.ModelIndividual, nil
	default:
		return 0, fmt.Errorf("unknown model %q", s)
	}
}

func parseCalib(s string) (repro.Calibration, error) {
	switch s {
	case "classical":
		return core.CalibrationClassical, nil
	case "analytic":
		return core.CalibrationAnalytic, nil
	default:
		return 0, fmt.Errorf("unknown calibration %q", s)
	}
}

func parseLevels(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		var lvl int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &lvl); err != nil {
			return nil, fmt.Errorf("bad level %q: %w", p, err)
		}
		out = append(out, lvl)
	}
	return out, nil
}
