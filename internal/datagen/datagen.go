// Package datagen generates synthetic bipartite association graphs with
// heavy-tailed degree distributions.
//
// The paper evaluates on the real DBLP dump (1,295,100 authors; 2,281,341
// papers; 6,384,117 author-paper associations), which this repository
// cannot ship. The generator substitutes a Zipf-degree bipartite graph
// matched to DBLP's published shape: the experiment's behaviour depends
// only on the total record count and the per-level maximum cell size
// produced by specialization on a heavy-tailed graph, both of which the
// generator preserves. Presets exist for the paper's full scale, a
// laptop-friendly 1/20 scale used by default, and the intro's motivating
// scenarios (pharmacy purchases, movie ratings).
package datagen

import (
	"errors"
	"fmt"

	"repro/internal/bipartite"
)

// Config describes a synthetic bipartite graph.
type Config struct {
	// Name labels the dataset in experiment output.
	Name string `json:"name"`
	// NumLeft and NumRight are the side sizes (e.g. authors and papers).
	NumLeft  int `json:"num_left"`
	NumRight int `json:"num_right"`
	// NumEdges is the target number of distinct associations. Generation
	// retries duplicate pairs, so the result has exactly this many edges
	// unless the graph is too dense to honor it.
	NumEdges int `json:"num_edges"`
	// LeftZipf and RightZipf are the Zipf exponents (> 1) controlling the
	// degree tails of the two sides; larger means heavier concentration
	// on the head nodes.
	LeftZipf  float64 `json:"left_zipf"`
	RightZipf float64 `json:"right_zipf"`
	// Seed drives the deterministic generator.
	Seed uint64 `json:"seed"`
	// Labels attaches synthetic names ("left/0042") when true.
	Labels bool `json:"labels"`
}

// Errors returned by Generate.
var (
	ErrBadConfig = errors.New("datagen: invalid config")
	ErrTooDense  = errors.New("datagen: edge target exceeds possible distinct pairs")
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumLeft <= 0 || c.NumRight <= 0 {
		return fmt.Errorf("%w: sides must be positive (%d, %d)", ErrBadConfig, c.NumLeft, c.NumRight)
	}
	if c.NumEdges < 0 {
		return fmt.Errorf("%w: negative edge count %d", ErrBadConfig, c.NumEdges)
	}
	if c.LeftZipf <= 1 || c.RightZipf <= 1 {
		return fmt.Errorf("%w: zipf exponents must be > 1 (%v, %v)", ErrBadConfig, c.LeftZipf, c.RightZipf)
	}
	possible := int64(c.NumLeft) * int64(c.NumRight)
	if int64(c.NumEdges) > possible {
		return fmt.Errorf("%w: want %d edges of %d possible", ErrTooDense, c.NumEdges, possible)
	}
	return nil
}

// Generate builds the synthetic graph described by c. Both endpoints of
// every association are drawn from (independent) Zipf distributions over
// the node ranks, which yields the heavy-tailed joint shape real
// association data exhibits (a few prolific authors, a few heavily
// co-authored papers). The edges are exactly the ones Stream emits for c.
func Generate(c Config) (*bipartite.Graph, error) {
	labels := c.Labels
	c.Labels = false
	edges, numLeft, numRight, err := EdgeList(c)
	if err != nil {
		return nil, err
	}
	g, err := bipartite.FromEdges(numLeft, numRight, edges)
	if err != nil {
		return nil, fmt.Errorf("datagen: building graph: %w", err)
	}
	if labels {
		return relabel(g)
	}
	return g, nil
}

// relabel rebuilds the graph with synthetic names attached.
func relabel(g *bipartite.Graph) (*bipartite.Graph, error) {
	nb := bipartite.NewBuilder(int(g.NumEdges()))
	g.ForEachEdge(func(l, r int32) bool {
		nb.AddAssociation(
			fmt.Sprintf("left/%06d", l),
			fmt.Sprintf("right/%06d", r),
		)
		return true
	})
	labeled, err := nb.Build()
	if err != nil {
		return nil, fmt.Errorf("datagen: relabeling: %w", err)
	}
	return labeled, nil
}

// Preset names accepted by ByName.
const (
	PresetDBLPFull   = "dblp-full"
	PresetDBLPScaled = "dblp-scaled"
	PresetDBLPTiny   = "dblp-tiny"
	PresetPharmacy   = "pharmacy"
	PresetMovies     = "movies"
)

// DBLPFull is the paper's exact DBLP scale. Generating it takes a few
// minutes and several GB of memory; benchmarks default to DBLPScaled.
func DBLPFull(seed uint64) Config {
	return Config{
		Name:    PresetDBLPFull,
		NumLeft: 1295100, NumRight: 2281341, NumEdges: 6384117,
		LeftZipf: 1.9, RightZipf: 2.8,
		Seed: seed,
	}
}

// DBLPScaled is the default evaluation dataset: the paper's DBLP at 1/20
// scale with the same shape.
func DBLPScaled(seed uint64) Config {
	return Config{
		Name:    PresetDBLPScaled,
		NumLeft: 64755, NumRight: 114067, NumEdges: 319205,
		LeftZipf: 1.9, RightZipf: 2.8,
		Seed: seed,
	}
}

// DBLPTiny is a fast unit-test dataset with the DBLP shape.
func DBLPTiny(seed uint64) Config {
	return Config{
		Name:    PresetDBLPTiny,
		NumLeft: 2000, NumRight: 3500, NumEdges: 10000,
		LeftZipf: 1.9, RightZipf: 2.8,
		Seed: seed,
	}
}

// Pharmacy models the intro's purchase scenario: patients (left) buying
// drugs (right). Group privacy protects neighbourhood-level aggregates.
func Pharmacy(seed uint64) Config {
	return Config{
		Name:    PresetPharmacy,
		NumLeft: 5000, NumRight: 800, NumEdges: 60000,
		LeftZipf: 2.2, RightZipf: 1.6,
		Seed: seed, Labels: true,
	}
}

// MovieRatings models the intro's rating scenario: viewers (left) rating
// movies (right).
func MovieRatings(seed uint64) Config {
	return Config{
		Name:    PresetMovies,
		NumLeft: 10000, NumRight: 2000, NumEdges: 200000,
		LeftZipf: 2.0, RightZipf: 1.5,
		Seed: seed,
	}
}

// ByName returns the preset config with the given name.
func ByName(name string, seed uint64) (Config, error) {
	switch name {
	case PresetDBLPFull:
		return DBLPFull(seed), nil
	case PresetDBLPScaled:
		return DBLPScaled(seed), nil
	case PresetDBLPTiny:
		return DBLPTiny(seed), nil
	case PresetPharmacy:
		return Pharmacy(seed), nil
	case PresetMovies:
		return MovieRatings(seed), nil
	default:
		return Config{}, fmt.Errorf("datagen: unknown preset %q (have %s, %s, %s, %s, %s)",
			name, PresetDBLPFull, PresetDBLPScaled, PresetDBLPTiny, PresetPharmacy, PresetMovies)
	}
}

// Presets lists the available preset names.
func Presets() []string {
	return []string{PresetDBLPFull, PresetDBLPScaled, PresetDBLPTiny, PresetPharmacy, PresetMovies}
}
