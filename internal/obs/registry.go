package obs

import (
	"log/slog"
	"sort"
	"sync"
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
// timeline and its per-table histograms. The scheduler holds the
// pointer directly so the hot path never takes the registry lock.
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
// the WAL-sync histogram, and per-table state. All methods are safe
// for concurrent use and nil-tolerant.
type Registry struct {
	cfg     Config
	ctr     atomic.Uint64
	logger  *slog.Logger
	Traces  *TraceRing
	WALSync *Histogram

	mu     sync.Mutex
	tables map[string]*Table
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
		tables:  make(map[string]*Table),
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

// Table returns (creating if needed) the observability state for the
// named table.
func (r *Registry) Table(name string) *Table {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tables[name]
	if t == nil {
		t = &Table{
			Timeline:    NewTimeline(r.cfg.EventRingCap),
			QueryDur:    NewHistogram(ExpBuckets(0.0001, 2, 16)...),
			BatchSize:   NewHistogram(1, 2, 4, 8, 16, 32, 64, 128),
			SliceBudget: NewHistogram(ExpBuckets(0.00001, 4, 10)...),
		}
		r.tables[name] = t
	}
	return t
}

// Drop forgets a table's observability state (table deleted).
func (r *Registry) Drop(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.tables, name)
	r.mu.Unlock()
}

// Tables returns a name-sorted snapshot of the per-table state, for
// the /metrics renderer.
func (r *Registry) Tables() []struct {
	Name string
	Obs  *Table
} {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]struct {
		Name string
		Obs  *Table
	}, 0, len(r.tables))
	for name, t := range r.tables {
		out = append(out, struct {
			Name string
			Obs  *Table
		}{name, t})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
