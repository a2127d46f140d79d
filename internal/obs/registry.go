package obs

import (
	"log/slog"
	"sync/atomic"
	"time"
)

// DefaultSlowQuery is the slow-query threshold applied when Config
// leaves SlowQuery zero. Queries slower than this are always traced
// (retroactively if they were not sampled) and logged.
const DefaultSlowQuery = 250 * time.Millisecond

const (
	// traceRingCap bounds the /debug/traces ring.
	traceRingCap        = 64
	defaultEventRingCap = 256
)

// Config tunes a Registry.
type Config struct {
	// SampleEvery traces one in every N queries at full per-shard
	// fidelity. 0 (or negative) disables sampling; ?trace=1 and the
	// slow-query path still produce traces.
	SampleEvery int
	// SlowQuery is the latency threshold above which a query is
	// always traced and logged. 0 means DefaultSlowQuery; negative
	// disables slow-query handling entirely.
	SlowQuery time.Duration
	// EventRingCap bounds each table's convergence timeline
	// (default 256).
	EventRingCap int
	// Logger receives slow-query lines; nil falls back to
	// slog.Default().
	Logger *slog.Logger
}

// Table bundles one table's observability state: its convergence
// timeline and its per-table histograms. The catalog's table holds it,
// and the scheduler reads it from there.
type Table struct {
	Timeline *Timeline
	// QueryDur observes end-to-end query latency in seconds
	// (admission to reply).
	QueryDur *Histogram
	// BatchSize observes how many tasks each scheduler batch
	// coalesced.
	BatchSize *Histogram
	// SliceBudget observes the indexing budget actually spent per
	// slice (WorkSeconds of batch leaders and idle refinement
	// slices).
	SliceBudget *Histogram
}

// Registry is the process-wide observability root: the trace ring,
// the WAL-sync histogram, and the settings each table's state is built
// with (NewTable). All methods are safe for concurrent use and
// nil-tolerant.
type Registry struct {
	cfg     Config
	ctr     atomic.Uint64
	logger  *slog.Logger
	Traces  *TraceRing
	WALSync *Histogram
}

// NewRegistry builds a registry from cfg, applying defaults.
func NewRegistry(cfg Config) *Registry {
	if cfg.EventRingCap <= 0 {
		cfg.EventRingCap = defaultEventRingCap
	}
	if cfg.SlowQuery == 0 {
		cfg.SlowQuery = DefaultSlowQuery
	}
	lg := cfg.Logger
	if lg == nil {
		lg = slog.Default()
	}
	return &Registry{
		cfg:     cfg,
		logger:  lg,
		Traces:  NewTraceRing(traceRingCap),
		WALSync: NewHistogram(ExpBuckets(0.00001, 4, 10)...),
	}
}

// Sample reports whether the next query should carry a full-fidelity
// trace; one atomic add when sampling is on, a constant test when
// off.
func (r *Registry) Sample() bool {
	if r == nil || r.cfg.SampleEvery <= 0 {
		return false
	}
	return r.ctr.Add(1)%uint64(r.cfg.SampleEvery) == 0
}

// SlowThreshold returns the slow-query latency threshold, or 0 if
// slow-query handling is disabled.
func (r *Registry) SlowThreshold() time.Duration {
	if r == nil || r.cfg.SlowQuery < 0 {
		return 0
	}
	return r.cfg.SlowQuery
}

// Logger returns the slow-query logger (never nil on a non-nil
// registry).
func (r *Registry) Logger() *slog.Logger {
	if r == nil {
		return slog.Default()
	}
	return r.logger
}

// NewRetro builds a trace flagged as synthesized after the fact, with
// its root span starting at start. The scheduler uses it to give slow
// queries that were not sampled a coarse trace from the timestamps it
// already had.
func (r *Registry) NewRetro(table string, start time.Time) *Trace {
	return newRetroTrace("query", table, start)
}

// NewTable builds a fresh table's observability state: the catalog's
// table owns it, and it lives and goes with that table. Nil on a nil
// registry.
func (r *Registry) NewTable() *Table {
	if r == nil {
		return nil
	}
	return &Table{
		Timeline:    NewTimeline(r.cfg.EventRingCap),
		QueryDur:    NewHistogram(ExpBuckets(0.0001, 2, 16)...),
		BatchSize:   NewHistogram(1, 2, 4, 8, 16, 32, 64, 128),
		SliceBudget: NewHistogram(ExpBuckets(0.00001, 4, 10)...),
	}
}
