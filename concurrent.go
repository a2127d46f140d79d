package progidx

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/column"
	"repro/internal/obs"
	"repro/internal/query"
)

// Handle is the concurrency-safe table surface the serving layer
// schedules against: plain Execute plus the scheduler hooks (batched
// execution, idle-time refinement), live ingestion, and the
// observability probes. Two implementations exist: *Sharded — every
// single-column table, one shard when it is not partitioned — and the
// multi-column plan.Table. Both are safe for concurrent use by
// construction.
type Handle interface {
	Index
	// ExecuteBatch executes several requests under one indexing budget —
	// the first request carries it, the rest run with indexing suspended
	// — with the per-request traces and the deadline clamp of opts;
	// answers and errors positionally match reqs.
	ExecuteBatch(reqs []Request, opts BatchOpts) ([]Answer, []error)
	// RefineStep spends one indexing-budget slice with no client query
	// attached, returning the work stats and whether the handle is now
	// fully converged.
	RefineStep() (Stats, bool)
	// Append ingests new rows at the tail of the table. The rows are
	// visible to every query that starts after Append returns; the
	// index absorbs them progressively under the same per-query budget
	// discipline as its initial build (see Sharded.Append).
	Append(values []int64) error
	// Progress reports the convergence fraction in [0, 1].
	Progress() float64
	// Phase reports the lifecycle phase when the underlying strategy
	// has one (ok == false otherwise).
	Phase() (Phase, bool)
	// ValueBounds returns the zone of the table's (first) column,
	// appended rows included.
	ValueBounds() (min, max int64)
	// PendingRows is the number of appended rows no index covers yet.
	PendingRows() int
	// MaterializeRows returns a fresh copy of the table's rows in row
	// order — flat row-major tuples on a multi-column table. The handle
	// holds the rows itself (DESIGN.md section 10), so snapshot capture
	// and oracle checks read them back through this.
	MaterializeRows() []int64
	// SetEventSink routes the handle's structural events (tail seals,
	// cold-shard claims) into tl, the table's convergence timeline; nil
	// detaches.
	SetEventSink(tl *obs.Timeline)
}

// BatchOpts configures one Handle.ExecuteBatch call: per-request traces
// and the deadline clamp. The zero value is a plain batch.
type BatchOpts = query.BatchOpts

// ValueBounded is implemented by indexes that expose their base
// column's zone statistics. Synchronize uses it for the zone-map fast
// path: a predicate disjoint from [min, max] is answered empty without
// taking the lock or burning an indexing step. Every index in this
// module implements it.
type ValueBounded interface {
	// ValueBounds returns the smallest and largest value in the indexed
	// column.
	ValueBounds() (min, max int64)
}

// Synchronized makes a caller-built Index safe for concurrent use.
// Progressive and adaptive indexes reorganize themselves on every
// Execute call, so the underlying types are deliberately not safe for
// concurrent use (DESIGN.md section 7); this wrapper provides the
// locking. It is not a serving handle — it does not ingest, batch or
// refine in idle time; NewHandle builds one of those.
//
// Before convergence every call holds an exclusive lock, matching the
// paper's single-session execution model: each query both answers and
// reorganizes, so two cannot overlap. Once the index reports Converged
// — a terminal state for every index in this module — Execute performs
// no reorganization at all, and the wrapper switches to a shared
// (read) lock, letting any number of goroutines query a converged
// index in parallel.
//
// Custom Index implementations wrapped here must uphold the same
// contract as the in-module ones: once Converged() reports true it
// stays true, and Execute no longer mutates internal state.
type Synchronized struct {
	mu    sync.RWMutex
	inner Index

	// converged is the sticky read-path switch: set after observing
	// inner.Converged() under the lock (either mode — the true-store is
	// idempotent), never cleared.
	converged atomic.Bool

	// Zone statistics of the wrapped index's column, captured at wrap
	// time when the index is ValueBounded.
	vmin, vmax int64
	bounded    bool
}

// Synchronize wraps idx. The inner index must not be used directly
// afterwards.
func Synchronize(idx Index) *Synchronized {
	s := &Synchronized{inner: idx}
	if b, ok := idx.(ValueBounded); ok {
		s.vmin, s.vmax = b.ValueBounds()
		s.bounded = true
	}
	return s
}

// ValueBounds implements ValueBounded. When the wrapped index is not
// itself ValueBounded, it reports the widest possible domain — a zone
// map that never prunes — so a consumer (including a redundant second
// Synchronize wrap) can never be tricked into treating a satisfiable
// predicate as a zone miss.
func (s *Synchronized) ValueBounds() (int64, int64) {
	if !s.bounded {
		return math.MinInt64, math.MaxInt64
	}
	return s.vmin, s.vmax
}

// zoneMiss implements the zone-map fast path: a well-formed predicate
// that cannot match — disjoint from the column's [min, max], or an
// inverted range — can only produce the empty answer, so it is answered
// immediately: no lock is taken and no indexing step is burned.
// Skipping the budgeted work is deliberate: zone-missing probes
// (existence checks outside the domain, range scans of an empty
// region) are pure reads under this path, which keeps them
// microsecond-cheap even while the index is mid-build and the write
// lock is contended. Malformed requests fall through so the inner
// index reports its usual error.
func (s *Synchronized) zoneMiss(req Request) (Answer, bool) {
	if !s.bounded || req.Validate() != nil {
		return Answer{}, false
	}
	if _, _, empty := req.Pred.Bounds(s.vmin, s.vmax); !empty {
		return Answer{}, false
	}
	// The stats are all-zero work, but the phase should still tell the
	// truth a caller can know lock-free: a converged index reports
	// Done, not the zero value's "creation".
	var st Stats
	if s.converged.Load() {
		st.Phase = PhaseDone
	}
	return query.NewAnswer(column.NewAgg(), req.Aggs.Normalize(), st), true
}

// Name implements Index.
func (s *Synchronized) Name() string { return s.inner.Name() }

// noteConverged records the inner index's terminal state. The caller
// holds the lock in either mode.
func (s *Synchronized) noteConverged() {
	if !s.converged.Load() && s.inner.Converged() {
		s.converged.Store(true)
	}
}

// Execute implements Index, holding the exclusive lock across the
// answer and the indexing work it triggers — or, once the index has
// converged, only a shared lock, since a converged Execute is
// read-only. Because the Answer carries the per-query Stats inline,
// concurrent callers always observe the (answer, stats) pair of their
// own call.
func (s *Synchronized) Execute(req Request) (Answer, error) {
	if ans, ok := s.zoneMiss(req); ok {
		return ans, nil
	}
	if s.converged.Load() {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.inner.Execute(req)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ans, err := s.inner.Execute(req)
	s.noteConverged()
	return ans, err
}

// Converged implements Index. Once true this is a lock-free load.
func (s *Synchronized) Converged() bool {
	if s.converged.Load() {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.noteConverged()
	return s.converged.Load()
}

// Progress returns the convergence fraction in [0, 1]: exactly 1 once
// converged, the wrapped index's query.Progressor estimate when it provides
// one, and 0 otherwise (strategies like cracking and full scan never
// converge and report no progress).
func (s *Synchronized) Progress() float64 {
	if s.converged.Load() {
		return 1
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if p, ok := s.inner.(query.Progressor); ok {
		return min(max(p.Progress(), 0), 1)
	}
	if s.inner.Converged() {
		return 1
	}
	return 0
}

// Phase returns the wrapped index's lifecycle phase when it has one
// (ok == false otherwise).
func (s *Synchronized) Phase() (Phase, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.inner.(query.Phaser)
	if !ok {
		return 0, false
	}
	return p.Phase(), true
}
