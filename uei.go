package uei

import (
	"context"
	"io"
	"time"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/dbms"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/stream"
)

// --- sentinel errors ---
//
// The facade re-exports the internal sentinels so callers can errors.Is
// against them without importing internal packages. Every error that
// crosses the facade boundary wraps (never stringifies) these.
var (
	// ErrClosed is returned by index operations after Index.Close.
	ErrClosed = core.ErrClosed
	// ErrNotFitted is returned when a prediction or scoring path runs
	// before the model has been fitted (or with stale scores).
	ErrNotFitted = learn.ErrNotFitted
	// ErrBudgetExceeded is returned when a region load would overflow the
	// memory budget; region installs tolerate it by truncating.
	ErrBudgetExceeded = memcache.ErrBudgetExceeded
	// ErrNoCandidates is returned when a session needs an unlabeled
	// candidate and the pool is empty.
	ErrNoCandidates = ide.ErrNoCandidates
	// ErrLayoutMismatch is returned by Open when the directory's store
	// layout (flat vs sharded, or shard count) does not match what the
	// caller asked for.
	ErrLayoutMismatch = chunkstore.ErrLayoutMismatch
	// ErrFormatVersion is returned by Open when a store (flat, any shard,
	// or any live segment) was written in an on-disk format this build does
	// not read; rebuild it with uei-ingest.
	ErrFormatVersion = chunkstore.ErrFormatVersion
	// ErrShardUnavailable classifies unavailable-shard failures; a step
	// that could not load its cell and had nothing to fall back to, and a
	// sample or retrieval that could not reach every shard, wrap it.
	ErrShardUnavailable = shard.ErrShardUnavailable
	// ErrNotLive is returned by the write-path methods (Index.Append,
	// Index.Flush, Index.AdvanceSnapshot) of an index opened over a static
	// layout.
	ErrNotLive = core.ErrNotLive
	// ErrOutOfBounds is returned by Index.Append for rows outside the
	// bounds the live store's grid was pinned to at build time.
	ErrOutOfBounds = stream.ErrOutOfBounds
)

// --- call options ---

// apiConfig collects what the baseline-engine constructors accept as
// functional options.
type apiConfig struct {
	limiter *IOLimiter
}

// Option configures the baseline-engine constructors (CreateTable,
// OpenTable), which have no options struct. Open takes every
// knob as an Options field.
type Option func(*apiConfig)

// WithIOLimiter meters the construct's read bandwidth. nil (the default)
// means unlimited.
func WithIOLimiter(l *IOLimiter) Option { return func(c *apiConfig) { c.limiter = l } }

func applyOptions(o []Option) apiConfig {
	var c apiConfig
	for _, fn := range o {
		fn(&c)
	}
	return c
}

// --- observability (internal/obs) ---

type (
	// Registry is a metrics registry (counters, gauges, histograms).
	Registry = obs.Registry
	// Tracer is the sink traces are written to (JSON span records); it
	// mints traces and is otherwise passed to nothing.
	Tracer = obs.Tracer
	// Trace is one hierarchical trace (a tree of spans sharing a trace id);
	// mint one per request with Tracer.NewTrace and carry it in a context.
	Trace = obs.Trace
	// Span is one timed operation: emitted into the trace its context
	// carried, or measuring-only when the context carried none.
	Span = obs.Span
	// SLO accounts per-step latency against an interactivity budget:
	// rolling percentiles, violation counts, per-phase budget attribution.
	SLO = obs.SLO
)

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewTracer returns a tracer writing JSON span records to w.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// ContextWithTrace returns ctx carrying the trace; spans opened under it
// nest beneath the trace's root. A nil trace returns ctx unchanged, so the
// call is safe on the untraced path.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	return obs.ContextWithTrace(ctx, tr)
}

// TraceFromContext returns the trace carried by ctx, or nil.
func TraceFromContext(ctx context.Context) *Trace { return obs.TraceFromContext(ctx) }

// StartSpan opens a span named name under ctx's current span (or as the
// trace root) and returns the child context to pass downward. Without a
// trace in ctx the span is measuring-only: End still returns the duration
// but nothing is emitted.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}

// NewSLO returns an SLO accountant publishing to reg. Zero budget selects
// obs.DefaultSLOBudget (500ms); zero window selects obs.DefaultSLOWindow.
func NewSLO(reg *Registry, budget time.Duration, window int) *SLO {
	return obs.NewSLO(reg, budget, window)
}

// --- the index (internal/core) ---

type (
	// Index is an opened Uncertainty Estimation Index.
	Index = core.Index
	// Options configures Open.
	Options = core.Options
	// BuildOptions configures the once-per-dataset Build phase.
	BuildOptions = core.BuildOptions
	// IndexStats reports an index's activity counters.
	IndexStats = core.Stats
)

// Build runs the Index Initialization phase (Algorithm 2 lines 1-11) into
// dir: vertical decomposition, per-dimension sorting, equal-size chunking,
// and manifest persistence.
func Build(ctx context.Context, dir string, ds *Dataset, opts BuildOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return core.Build(dir, ds, opts)
}

// Open loads an index built by Build. Every knob — I/O limiter,
// worker-pool size, metrics registry, tracer, layout pinning — is an
// Options field.
func Open(ctx context.Context, dir string, opts Options) (*Index, error) {
	return core.Open(ctx, dir, opts)
}

// --- the exploration engine (internal/ide) ---

type (
	// Session runs the Algorithm 1 / Algorithm 2 interactive loop.
	Session = ide.Session
	// SessionConfig parameterizes a Session.
	SessionConfig = ide.Config
	// SessionResult summarizes a finished Session.
	SessionResult = ide.Result
	// IterationInfo describes one completed iteration.
	IterationInfo = ide.IterationInfo
	// Provider supplies per-iteration candidates (UEI or DBMS scheme).
	Provider = ide.Provider
	// UEIProvider runs the loop over an Index.
	UEIProvider = ide.UEIProvider
	// DBMSProvider runs the loop over the baseline storage engine.
	DBMSProvider = ide.DBMSProvider
	// Labeler answers label solicitations; implement it to put a human in
	// the loop, or use OracleLabeler for simulation.
	Labeler = ide.Labeler
	// PositiveSeeder optionally bootstraps a session with one relevant
	// example.
	PositiveSeeder = ide.PositiveSeeder
	// MultiPositiveSeeder optionally supplies one bootstrap positive per
	// component of a disjunctive interest.
	MultiPositiveSeeder = ide.MultiPositiveSeeder
	// OracleLabeler adapts an Oracle to the Labeler interface.
	OracleLabeler = ide.OracleLabeler
	// Snapshot captures a session's labeled set for pause/resume.
	Snapshot = ide.Snapshot
)

// NewSession validates the configuration and builds a session.
func NewSession(cfg SessionConfig, provider Provider, labeler Labeler) (*Session, error) {
	return ide.NewSession(cfg, provider, labeler)
}

// NewUEIProvider wraps an opened Index for use in a Session.
func NewUEIProvider(idx *Index) (*UEIProvider, error) {
	return ide.NewUEIProvider(idx)
}

// NewDBMSProvider wraps a baseline Table for use in a Session.
func NewDBMSProvider(table *Table) (*DBMSProvider, error) {
	return ide.NewDBMSProvider(table)
}

// NewSessionFromSnapshot resumes an exploration from a saved labeled set.
func NewSessionFromSnapshot(cfg SessionConfig, provider Provider, labeler Labeler, snap Snapshot) (*Session, error) {
	return ide.NewSessionFromSnapshot(cfg, provider, labeler, snap)
}

// ReadSnapshot parses a snapshot written by Snapshot.Save.
func ReadSnapshot(r io.Reader) (Snapshot, error) { return ide.ReadSnapshot(r) }

// --- query strategies (internal/al) ---

type (
	// Strategy scores unlabeled candidates; higher is more informative.
	Strategy = al.Scorer
	// LeastConfidence is Eq. (1)'s uncertainty sampling.
	LeastConfidence = al.LeastConfidence
	// Margin is the posterior-margin uncertainty variant.
	Margin = al.Margin
	// Entropy is the posterior-entropy uncertainty variant.
	Entropy = al.Entropy
	// Random is the passive baseline.
	Random = al.Random
	// QueryByCommittee scores by committee disagreement.
	QueryByCommittee = al.QueryByCommittee
	// ExpectedErrorReduction scores by lookahead uncertainty reduction.
	ExpectedErrorReduction = al.ExpectedErrorReduction
)

// NewRandom returns the seeded passive strategy.
func NewRandom(seed int64) *Random { return al.NewRandom(seed) }

// --- classifiers (internal/learn) ---

type (
	// Classifier is a binary probabilistic model.
	Classifier = learn.Classifier
	// DWKNN is the paper's dual weighted k-NN uncertainty estimator.
	DWKNN = learn.DWKNN
	// GaussianNB is a Gaussian naive Bayes classifier.
	GaussianNB = learn.GaussianNB
	// Logistic is an SGD logistic-regression classifier.
	Logistic = learn.Logistic
	// Committee is a bootstrap ensemble of classifiers.
	Committee = learn.Committee
)

// NewDWKNN returns a DWKNN with neighborhood size k (0 selects 7) and
// optional per-dimension distance scales.
func NewDWKNN(k int, scales []float64) *DWKNN { return learn.NewDWKNN(k, scales) }

// NewGaussianNB returns a Gaussian naive Bayes classifier.
func NewGaussianNB() *GaussianNB { return learn.NewGaussianNB() }

// NewLogistic returns a seeded logistic-regression classifier.
func NewLogistic(seed int64) *Logistic { return learn.NewLogistic(seed) }

// NewCommittee builds a bootstrap committee of n members.
func NewCommittee(n int, seed int64, factory func(i int) Classifier) (*Committee, error) {
	return learn.NewCommittee(n, seed, factory)
}

// --- data substrate (internal/dataset) ---

type (
	// Dataset is an in-memory numeric table.
	Dataset = dataset.Dataset
	// Schema is an ordered set of numeric attributes.
	Schema = dataset.Schema
	// RowID identifies a tuple.
	RowID = dataset.RowID
	// SkyConfig controls the synthetic SDSS-like generator.
	SkyConfig = dataset.SkyConfig
)

// NewSchema builds a schema from unique column names.
func NewSchema(names ...string) (Schema, error) { return dataset.NewSchema(names...) }

// GenerateSky produces a synthetic SDSS-like dataset (see DESIGN.md §3).
func GenerateSky(cfg SkyConfig) (*Dataset, error) { return dataset.GenerateSky(cfg) }

// ReadCSVFile loads a numeric CSV with a header row.
func ReadCSVFile(path string) (*Dataset, error) { return dataset.ReadCSVFile(path) }

// WriteCSVFile saves a dataset as CSV with a header row.
func WriteCSVFile(path string, ds *Dataset) error { return dataset.WriteCSVFile(path, ds) }

// --- evaluation oracle (internal/oracle) ---

type (
	// Region is a target interest region (center + per-dimension
	// half-widths, Eq. 4).
	Region = oracle.Region
	// MultiRegion is a union of target regions (disjunctive interests).
	MultiRegion = oracle.MultiRegion
	// Oracle simulates the user via ground-truth range-query membership.
	Oracle = oracle.Oracle
	// SizeClass names the paper's region-cardinality classes.
	SizeClass = oracle.SizeClass
)

// NewRegion validates and builds a target region.
func NewRegion(center, widths []float64) (Region, error) { return oracle.NewRegion(center, widths) }

// NewOracle builds a simulated user for the region over the dataset.
func NewOracle(ds *Dataset, region Region) (*Oracle, error) { return oracle.New(ds, region) }

// FindRegion synthesizes a region of approximately the given selectivity.
func FindRegion(ds *Dataset, fraction, tol float64, seed int64, maxSeeds int) (Region, error) {
	return oracle.FindRegion(ds, fraction, tol, seed, maxSeeds)
}

// NewMultiRegion bundles disjoint regions into a disjunctive target.
func NewMultiRegion(regions ...Region) (MultiRegion, error) { return oracle.NewMultiRegion(regions...) }

// NewMultiOracle builds a simulated user for a multi-region target.
func NewMultiOracle(ds *Dataset, mr MultiRegion) (*Oracle, error) { return oracle.NewMulti(ds, mr) }

// FindMultiRegion synthesizes k disjoint regions of the given combined
// selectivity.
func FindMultiRegion(ds *Dataset, k int, fraction, tol float64, seed int64, maxSeeds int) (MultiRegion, error) {
	return oracle.FindMultiRegion(ds, k, fraction, tol, seed, maxSeeds)
}

// --- baseline storage engine (internal/dbms) ---

// Table is the baseline heap-file table read through a buffer pool.
type Table = dbms.Table

// CreateTable bulk-loads a dataset into a new heap file in dir.
func CreateTable(ctx context.Context, dir string, ds *Dataset, poolFrames int, o ...Option) (*Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := applyOptions(o)
	return dbms.CreateTable(dir, ds, poolFrames, c.limiter)
}

// OpenTable opens an existing heap table read-only.
func OpenTable(ctx context.Context, dir string, poolFrames int, o ...Option) (*Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := applyOptions(o)
	return dbms.OpenTable(dir, poolFrames, c.limiter)
}

// --- I/O bandwidth model (internal/iothrottle) ---

// IOLimiter meters read bandwidth with a token bucket; nil means
// unlimited.
type IOLimiter = iothrottle.Limiter

// NewIOLimiter returns a limiter with the given sustained bandwidth in
// bytes per second.
func NewIOLimiter(bytesPerSecond int64) *IOLimiter { return iothrottle.New(bytesPerSecond) }
