// Package repro is the public API of the group-differential-privacy
// library, a from-scratch Go reproduction of
//
//	Palanisamy, Li, Krishnamurthy. "Group Differential Privacy-preserving
//	Disclosure of Multi-level Association Graphs", IEEE ICDCS 2017.
//
// The library discloses bipartite association graphs (authors×papers,
// patients×drugs, viewers×movies) at multiple information levels: every
// level carries εg-group differential privacy for the groups formed at
// that level of a privately built hierarchy, so higher-privilege users
// receive less-perturbed data while aggregate information about coarser
// groups stays protected.
//
// Quick start:
//
//	g, _ := repro.GenerateDataset(repro.PresetDBLPTiny, 1)
//	pipe, _ := repro.NewPipeline(repro.Params{Epsilon: 0.9, Delta: 1e-5},
//	    repro.WithRounds(6), repro.WithSeed(7))
//	rel, _ := pipe.Run(g)
//	view, _ := rel.ViewFor(3) // what a privilege-3 user sees
//
// The facade re-exports the stable surface of the internal packages; see
// README.md ("Package map") for the full system inventory and run
// cmd/gdpbench for the paper-vs-measured evaluation.
package repro

import (
	"io"
	"net/http"
	"os"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dp"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/query"
	"repro/internal/release"
	"repro/internal/rng"
	"repro/internal/serve"
)

// Core data types.
type (
	// Graph is an immutable bipartite association graph.
	Graph = bipartite.Graph
	// Edge is one association record.
	Edge = bipartite.Edge
	// Side selects the left or right node side.
	Side = bipartite.Side
	// Stats summarizes a graph's shape.
	Stats = bipartite.Stats

	// Params is an (ε, δ) differential-privacy budget.
	Params = dp.Params

	// Pipeline is the configured two-phase discloser.
	Pipeline = release.Pipeline
	// Release is the published multi-level artifact.
	Release = release.Release
	// View is what one privilege tier receives.
	View = release.View
	// Option configures NewPipeline.
	Option = release.Option
	// Mode selects the budget mode.
	Mode = release.Mode

	// GroupModel selects group-adjacency semantics.
	GroupModel = core.GroupModel
	// Calibration selects the Gaussian calibration.
	Calibration = core.Calibration
	// LevelRelease is one level's noisy count answer.
	LevelRelease = core.LevelRelease
	// CellRelease is one level's noisy subgraph histogram.
	CellRelease = core.CellRelease
	// GroupUniverse describes one level's group partition.
	GroupUniverse = core.GroupUniverse

	// Tree is the multi-level group hierarchy (curator-side state).
	Tree = hierarchy.Tree

	// ExperimentOptions configures RunExperiment.
	ExperimentOptions = experiments.Options
	// ExperimentReport is an experiment's rendered output.
	ExperimentReport = experiments.Report
)

// Graph sides.
const (
	Left  = bipartite.Left
	Right = bipartite.Right
)

// Budget modes (see release.Mode).
const (
	ModePerLevel         = release.ModePerLevel
	ModeComposedBasic    = release.ModeComposedBasic
	ModeComposedAdvanced = release.ModeComposedAdvanced
	ModeComposedRDP      = release.ModeComposedRDP
)

// Group models (see core.GroupModel).
const (
	ModelCells      = core.ModelCells
	ModelNodeGroups = core.ModelNodeGroups
	ModelIndividual = core.ModelIndividual
)

// Gaussian calibrations (see core.Calibration).
const (
	CalibrationClassical = core.CalibrationClassical
	CalibrationAnalytic  = core.CalibrationAnalytic
)

// Dataset presets (see internal/datagen).
const (
	PresetDBLPFull   = datagen.PresetDBLPFull
	PresetDBLPScaled = datagen.PresetDBLPScaled
	PresetDBLPTiny   = datagen.PresetDBLPTiny
	PresetPharmacy   = datagen.PresetPharmacy
	PresetMovies     = datagen.PresetMovies
)

// FromEdges builds a Graph from explicit edges and side sizes.
func FromEdges(numLeft, numRight int32, edges []Edge) (*Graph, error) {
	return bipartite.FromEdges(numLeft, numRight, edges)
}

// LoadTSV reads "left<TAB>right" association lines.
func LoadTSV(r io.Reader) (*Graph, error) { return bipartite.LoadTSV(r) }

// SaveTSV writes one association per line.
func SaveTSV(w io.Writer, g *Graph) error { return bipartite.SaveTSV(w, g) }

// LoadDBLPXML parses a DBLP-style XML dump into an author-paper graph.
func LoadDBLPXML(r io.Reader) (*Graph, error) { return bipartite.LoadDBLPXML(r) }

// EncodeBinary writes the compact binary graph format.
func EncodeBinary(w io.Writer, g *Graph) error { return bipartite.EncodeBinary(w, g) }

// DecodeBinary reads the compact binary graph format.
func DecodeBinary(r io.Reader) (*Graph, error) { return bipartite.DecodeBinary(r) }

// ComputeStats summarizes a graph.
func ComputeStats(g *Graph) Stats { return bipartite.ComputeStats(g) }

// EdgeSource is a resettable chunked edge stream — the substrate of the
// beyond-RAM disclosure path (see Pipeline.RunFromEdges).
type EdgeSource = bipartite.EdgeSource

// NewTSVEdgeSource streams a "left<TAB>right" file as edge chunks without
// holding its pairs in memory.
func NewTSVEdgeSource(rs io.ReadSeeker) (EdgeSource, error) { return bipartite.NewTSVEdgeSource(rs) }

// NewGraphEdgeSource streams an in-memory graph's edges in left-major
// order (useful for verifying the streamed path against the in-memory
// one).
func NewGraphEdgeSource(g *Graph) EdgeSource { return bipartite.NewGraphSource(g) }

// GenerateDataset builds a synthetic dataset from a preset name.
func GenerateDataset(preset string, seed uint64) (*Graph, error) {
	cfg, err := datagen.ByName(preset, seed)
	if err != nil {
		return nil, err
	}
	return datagen.Generate(cfg)
}

// NewPipeline returns a configured two-phase disclosure pipeline.
func NewPipeline(budget Params, opts ...Option) (*Pipeline, error) {
	return release.New(budget, opts...)
}

// Pipeline options, re-exported from internal/release.
var (
	WithRounds         = release.WithRounds
	WithLevels         = release.WithLevels
	WithMode           = release.WithMode
	WithModel          = release.WithModel
	WithCalibration    = release.WithCalibration
	WithPhase1Epsilon  = release.WithPhase1Epsilon
	WithCellHistograms = release.WithCellHistograms
	WithSeed           = release.WithSeed
	WithStrategy       = release.WithStrategy
	WithWorkers        = release.WithWorkers
)

// ReleaseStrategyNames lists the built-in release strategies (a noise
// mechanism over the paper's Phase 1) selectable with
// WithStrategy, ServeConfig.Strategy, DatasetOptions.Strategy, or the
// HTTP ingest ?strategy= parameter.
func ReleaseStrategyNames() []string { return release.Strategies.Names() }

// DefaultReleaseStrategy is the strategy used when none is named; its
// artifacts are byte-identical to releases produced before strategies
// existed.
const DefaultReleaseStrategy = release.DefaultStrategyName

// GroupSensitivity returns the count-query sensitivity at a level of a
// built hierarchy under the given adjacency model.
func GroupSensitivity(t *Tree, level int, model GroupModel) (int64, error) {
	return core.Sensitivity(t, level, model)
}

// UniverseAt describes the group partition at one level.
func UniverseAt(t *Tree, level int, model GroupModel) (GroupUniverse, error) {
	return core.Universe(t, level, model)
}

// RunExperiment executes a named experiment ("figure1", "budget-split",
// "calibration", "partitioner", "adjacency", "delta", "scale").
func RunExperiment(name string, opts ExperimentOptions) (*ExperimentReport, error) {
	return experiments.Run(name, opts)
}

// ExperimentNames lists the available experiments.
func ExperimentNames() []string { return experiments.Names() }

// NewRandomSeed returns an OS-entropy seed for production (non-
// reproducible) releases.
func NewRandomSeed() (uint64, error) { return rng.NewRandomSeed() }

// NoiseMechanism selects the Phase-2 noise distribution for advanced
// release paths (see core.Noise).
type NoiseMechanism = core.NoiseMechanism

// Noise mechanisms (see core.NoiseMechanism).
const (
	MechGaussian  = core.MechGaussian
	MechLaplace   = core.MechLaplace
	MechGeometric = core.MechGeometric
)

// ReadRelease parses and validates a published artifact produced by
// Release.WriteJSON, for the data-user side.
func ReadRelease(r io.Reader) (*Release, error) { return release.ReadJSON(r) }

// MarginalCounts returns per-side-group association counts implied by a
// noisy cell release (row/column sums of the cell grid).
func MarginalCounts(c CellRelease, side Side) ([]float64, error) {
	return query.MarginalCounts(c, side)
}

// TopKGroups returns the indices of the k heaviest side groups according
// to a noisy cell release.
func TopKGroups(c CellRelease, side Side, k int) ([]int, error) {
	return query.TopKGroups(c, side, k)
}

// Serving API — the long-lived, budget-accounted, multi-tenant layer
// over the release engine (internal/serve; cmd/gdpserve is the server
// binary).
type (
	// ServeConfig configures OpenRegistry: per-dataset budget, per-query
	// cost, hierarchy depth, seed, ingest parallelism. Set LedgerAddr to
	// a gdpledgerd sequencer address to make N replicas of the same
	// dataset spend one shared budget (mutually exclusive with the local
	// LedgerDir/LedgerFsync* knobs).
	ServeConfig = serve.Config
	// Registry owns named served datasets and their ingest lanes.
	Registry = serve.Registry
	// Dataset is one served hierarchy plus its privacy ledger.
	Dataset = serve.Dataset
	// DatasetOptions carries per-dataset ingest options — notably a
	// release-strategy override — for Registry.AddDatasetWith.
	DatasetOptions = serve.DatasetOptions
	// Session is one tenant's query handle: reusable release buffers
	// and a private pre-split RNG stream. Not safe for concurrent use;
	// open one per goroutine.
	Session = serve.Session
	// LevelView is a session's served answer for one level: noisy count
	// plus noisy cell histogram.
	LevelView = serve.LevelView
	// ServeCacheStats reports a dataset's response-cache counters
	// (Dataset.CacheStats): hits replay prior answers without debiting
	// the ledger.
	ServeCacheStats = serve.CacheStats
	// LedgerFsyncPolicy selects when a durable ledger's WAL is fsynced
	// (ServeConfig.LedgerFsync): LedgerFsyncAlways, LedgerFsyncInterval
	// or LedgerFsyncOff.
	LedgerFsyncPolicy = accountant.FsyncPolicy
	// LedgerDurability reports a dataset's durable-ledger state
	// (Dataset.Durability): WAL path, fsync policy, record counts,
	// replayed ops, and whether the ledger has failed closed.
	LedgerDurability = accountant.DurableStatus
	// LedgerRemoteStatus reports a dataset's shared-sequencer binding
	// (Dataset.RemoteStatus) when ServeConfig.LedgerAddr points the
	// registry at a gdpledgerd service: sequencer address, budget key,
	// pinned epoch token, and any latched failure. With a shared
	// sequencer, N serving replicas spend ONE (ε, δ) budget per dataset.
	LedgerRemoteStatus = accountant.RemoteStatus
)

// Durable-ledger fsync policies (ServeConfig.LedgerFsync).
const (
	// LedgerFsyncAlways fsyncs the WAL before every spend is admitted:
	// no noise bytes are ever released for an op that is not durably
	// logged. The default.
	LedgerFsyncAlways = accountant.FsyncAlways
	// LedgerFsyncInterval bounds the unsynced window by
	// ServeConfig.LedgerFsyncInterval — a crash may forget spends
	// admitted within the window (budget-unsafe but faster).
	LedgerFsyncInterval = accountant.FsyncInterval
	// LedgerFsyncOff syncs only on close and explicit Sync.
	LedgerFsyncOff = accountant.FsyncOff
)

// OpenRegistry opens an empty serving registry. Datasets are added with
// Registry.AddDataset from any EdgeSource — the edges stream through
// the two-pass hierarchy build and are never resident in memory.
// Queries run through Dataset.NewSession (or SessionAt for replayable
// pinned streams) and debit the dataset's ledger before any noise is
// drawn; exhausted budgets refuse queries with an error satisfying
// errors.Is(err, ErrBudgetExhausted).
func OpenRegistry(cfg ServeConfig) (*Registry, error) { return serve.Open(cfg) }

// ErrBudgetExhausted is returned (wrapped) by sessions of a dataset
// whose privacy ledger cannot admit another query.
var ErrBudgetExhausted = accountant.ErrBudgetExceeded

// ErrLedgerFailed is the fail-closed latch of durable and
// sequencer-backed ledgers: once a dataset's ledger cannot prove a
// spend was recorded (write error, lost ack, partition, epoch fence),
// every later query fails with an error satisfying
// errors.Is(err, ErrLedgerFailed) rather than release unaccounted
// noise.
var ErrLedgerFailed = accountant.ErrLedgerFailed

// ServeHandlerOptions configures NewServeHandlerWith.
type ServeHandlerOptions = serve.HandlerOptions

// NewServeHandlerWith returns the HTTP/JSON front end over a registry —
// dataset ingest, budget inspection, level views, marginal and top-k
// queries (see cmd/gdpserve for the standalone server) — with explicit
// options: enabling JSON {"path": ...} ingest of server-side files (safe
// only on trusted or loopback listeners), and the resource caps on
// upload size and open session handles. The zero options disable path
// ingest.
func NewServeHandlerWith(r *Registry, opts ServeHandlerOptions) http.Handler {
	return serve.NewHandlerWith(r, opts)
}

// OpenEdgeSourceFile sniffs an edge file's format (binary codec vs TSV)
// and returns a chunked source over it.
func OpenEdgeSourceFile(f *os.File) (EdgeSource, error) { return serve.OpenEdgeSourceFile(f) }
