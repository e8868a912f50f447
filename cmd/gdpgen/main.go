// Command gdpgen generates synthetic association datasets (the DBLP
// stand-in and the intro scenarios) to TSV or the compact binary format.
//
// Usage:
//
//	gdpgen -preset dblp-scaled -seed 1 -format binary -out dblp.bpg
//	gdpgen -preset pharmacy -stats
//	gdpgen -left 1000 -right 2000 -edges 8000 -out custom.tsv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/datagen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gdpgen:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gdpgen", flag.ContinueOnError)
	var (
		preset = fs.String("preset", "", fmt.Sprintf("dataset preset %v; empty for custom sizes", datagen.Presets()))
		seed   = fs.Uint64("seed", 1, "generator seed")
		out    = fs.String("out", "", "output path; empty writes to stdout")
		format = fs.String("format", "tsv", "output format: tsv or binary")
		stats  = fs.Bool("stats", false, "print dataset statistics to stderr")

		left   = fs.Int("left", 0, "custom: left side size")
		right  = fs.Int("right", 0, "custom: right side size")
		edges  = fs.Int("edges", 0, "custom: edge count")
		zipfL  = fs.Float64("zipf-left", 1.9, "custom: left Zipf exponent")
		zipfR  = fs.Float64("zipf-right", 2.8, "custom: right Zipf exponent")
		labels = fs.Bool("labels", false, "custom: attach synthetic names")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var write func(io.Writer, *repro.Graph) error
	switch *format {
	case "tsv":
		write = repro.SaveTSV
	case "binary":
		write = repro.EncodeBinary
	default:
		return fmt.Errorf("unknown format %q (want tsv or binary)", *format)
	}

	var cfg datagen.Config
	if *preset != "" {
		cfg, err = datagen.ByName(*preset, *seed)
		if err != nil {
			return err
		}
	} else {
		cfg = datagen.Config{
			Name: "custom", NumLeft: *left, NumRight: *right, NumEdges: *edges,
			LeftZipf: *zipfL, RightZipf: *zipfR, Seed: *seed, Labels: *labels,
		}
	}
	g, err := datagen.Generate(cfg)
	if err != nil {
		return err
	}
	if *stats {
		fmt.Fprintln(os.Stderr, repro.ComputeStats(g))
	}

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
	return write(w, g)
}
