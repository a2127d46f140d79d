// Package shard implements sharded progressive execution: a column is
// range-partitioned into S horizontal shards (contiguous row ranges),
// each backed by its own progressive index and described by a min/max
// zone map computed during partitioning.
//
// Execution follows three ideas:
//
//  1. Zone-map pruning. A query's predicate is intersected with every
//     shard's [min, max]; shards that cannot contain a matching row are
//     skipped entirely — no lock, no scan, no indexing work. On data
//     with value locality (time-ordered loads, clustered attributes) a
//     selective predicate touches O(1) shards instead of the whole
//     column.
//  2. Whole-query parallelism. The surviving shards fan out over the
//     shared worker pool (one task per shard), and their partial
//     aggregates merge in shard order, so answers are bit-identical to
//     the unsharded oracle at every worker count.
//  3. Heat-driven convergence. Each shard carries a heat counter (how
//     many queries it survived pruning for). One query's indexing
//     budget is split across its surviving shards in proportion to
//     heat (costmodel.HeatShares), so the shards the workload actually
//     touches converge first, and pruned shards consume no budget at
//     all.
//
// The table also grows while it is queried: Append routes new rows to
// a growable tail — an unindexed row range with its own zone map,
// scanned per query with the parallel kernels when its zone intersects
// the predicate — which is sealed into a regular shard (own index, own
// zone map, full membership in the pruning and heat machinery) once it
// reaches a size threshold, or during idle refinement once every
// sealed shard has converged. A seal applies the logarithmic method:
// the run being sealed absorbs the tail-born shards to its left that
// are below the threshold and not in a higher power-of-two size class,
// so however small the appends and however often an idle flush cuts the
// tail, the table holds at most MaxShards shards — the loaded ones,
// one per full threshold of appended rows, and one per size class
// below it — and a row is re-indexed at most once per class it climbs
// through. Loaded shards never merge. A merge carries the absorbed
// shards' zone (union) and heat, executes and refines (sums), copies its
// run once — the absorbed shards' rows in whatever form they are held,
// then the tail — into one buffer the merged shard owns, and re-earns
// its index through the ordinary per-query budget and idle slices: there
// is no compaction thread.
//
// The table holds its rows once. The loaded shards slice the loaded
// column's array; appended rows go to a tail extent — an array that
// holds the pending tail, doubles while it fills, and ends at every
// seal — and every tail-born shard owns the buffer its seal built.
// There is no growing base column whose reallocations would copy the
// loaded rows again and leave each superseded array pinned by the
// shards sealed in it: what the table holds is 8 bytes a raw row plus
// the extent's free capacity, under the rows it holds. And it holds them
// raw only while something reads them raw: a shard whose index has
// converged settles (settle.go), whatever its size — the raw copy
// dropped, the index kept, whose B+-tree's packed leaves are the rows,
// or where the table keeps row order the packed blocks it has held them
// in since it was born — so a shard has one of three forms, cold (packed
// blocks, no index), raw (an index over raw rows) or settled (a converged
// index), and a loaded array is freed when the last shard slicing it has
// settled.
//
// Readers never lock the table structure: the shard list and tail are
// published as an immutable copy-on-write view swapped atomically by
// Append and by a seal, so a query operates on a consistent snapshot
// while ingestion proceeds — a query that loaded its view before a
// merge finishes against the absorbed shards, which the merge leaves
// untouched.
//
// With Config.Encoding set, shards are born cold: each partition is
// compressed into encode.Blocks — BlockRows-row blocks, each
// frame-of-reference bit-packed over its own extrema, dictionary-coded
// against the shard's one dictionary, or raw — and queries aggregate
// directly over the packed words with the scan-on-compressed kernels,
// skipping the blocks whose zone misses the predicate, under a shared
// lock, with no progressive index and no budget spend. A cold shard is
// decompressed only when the workload earns it: once its heat crosses
// ClaimHeat, the next Execute (or ClaimHot) claims the shard —
// decodes the blocks, builds the factory index over the raw rows — and
// from then on it converges like any loaded shard. Appends still land
// in the raw pending tail and are compressed at seal time, so ingestion
// never pays an encode on the hot path; a seal builds its run into one
// buffer as on a raw table and encodes it once, and the merged shard is
// born cold. In encoded mode the blocks, any claimed shards' rows — until
// their indexes converge and they settle into their indexes' leaves, or
// into the blocks a claim keeps where the table keeps row order — and
// the pending tail (an extent that every seal ends) are the only copies of
// the data. Whatever form holds them, the rows are read block by block,
// and only so (BlockView): by a planned table's fused scan, a seal's
// gather, a snapshot.
//
// The Sharded type is one column of every served table (plan.Table; a
// single-column table is its one column) — Execute and ExecuteAs, Append,
// RefineStep, Progress, Phase and the observability probes; one shard
// when the table is not partitioned — with per-shard locking: queries on
// disjoint shards proceed in parallel even before convergence, and a
// converged shard's lock degrades to a shared read lock.
package shard

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/query"
)

// Factory builds one shard's index over its partition of the base
// column, with the whole lifecycle the layer drives (query.Budgeted).
// plan.NewColumn supplies one of the four progressive algorithms here,
// having refused any other strategy before a table exists; tests inject
// stubs. It is retained for the life of the Sharded index: every seal and
// claim builds its shard through it.
type Factory func(col *column.Column) query.Budgeted

// state is one shard: a contiguous row range of the logical table with
// its zone map, index, lock and heat accounting.
type state struct {
	mu  sync.RWMutex
	idx query.Budgeted

	// A shard holds its rows in one of three forms, told apart by which
	// of idx, packed and vals are set, and moves between them under the
	// write lock alone. Cold (idx == nil): packed only, scanned in place
	// under the shared lock. Raw: idx over vals — a slice of the loaded
	// column or the buffer a seal built in raw mode, the claim's decode
	// of a cold shard in encoded mode — which never change once set, and
	// where the table keeps row order packed beside them, the same rows
	// in blocks, which a row-ordered shard holds for life (KeepRowOrder).
	// Settled: idx, and packed where the table keeps row order; once the
	// index has converged nothing on the query path reads vals again, so
	// the settle (settle.go) drops them — the index's leaves or the
	// packed blocks are the rows — and keeps the index, which still
	// answers every query. Beyond these, the table keeps no copy of the
	// rows.
	packed *encode.Blocks
	vals   []int64

	start, end int   // row range [start, end) of the logical table
	min, max   int64 // zone map: extrema of the shard's rows

	// tailBorn marks a shard sealed from appended rows; only these are
	// ever absorbed by a later seal (sealLocked). Loaded shards never
	// merge. Immutable after birth.
	tailBorn bool

	// cold mirrors idx == nil for lock-free claim probes; cleared
	// under the write lock at claim time, before converged flips false.
	cold atomic.Bool

	// converged is the sticky read-path switch: set once the shard has
	// nothing left to do — its index converged and, where the shard
	// settles, its settle published; once true, queries share the lock.
	// idxDone is the first half alone: the index has converged
	// (noteIndexDone sets it, once).
	converged atomic.Bool
	idxDone   atomic.Bool

	// heat counts the queries this shard survived pruning for; it
	// drives the budget split and the idle-refinement order.
	heat atomic.Uint64
	// executes counts Execute calls that actually reached the index —
	// the "pruned shards do zero scan work" witness: a shard that is
	// never executed performs no scan and no indexing work.
	executes atomic.Uint64
	// refines counts idle RefineStep slices spent on this shard.
	refines atomic.Uint64

	// What no converged query path reads comes last. claimErr is why the
	// shard's one claim failed, nil otherwise: a failed claim is not
	// retried, the shard stays cold and exact, and the error shows in
	// ShardStats. zones are vals' block zones, for BlockView.
	claimErr atomic.Pointer[error]
	zones    zoneCache
}

// newColdState births a cold shard: compressed rows, the zone map their
// pack folded, and the converged switch already set — cold is the shard's
// terminal serving state (shared-lock scans, zero budget) until a claim
// re-opens it.
func newColdState(packed *encode.Blocks, start, end int) *state {
	st := &state{packed: packed, start: start, end: end}
	st.min, st.max = packed.Bounds()
	st.cold.Store(true)
	st.converged.Store(true)
	return st
}

// view is one immutable snapshot of the table structure: the sealed
// shards plus the pending tail. Append publishes a fresh view; queries
// load one and work against it unlocked. Everything here is frozen —
// the shards slice is never mutated after publish, and tail is a
// length-pinned snapshot of append-only rows — except the per-shard
// convergence/heat atomics, which only move monotonically.
type view struct {
	shards []*state
	rows   int   // logical rows covered: sealed shards + tail
	vmin   int64 // zone of the whole logical column
	vmax   int64

	tail             []int64 // pending unindexed rows (may be empty)
	tailMin, tailMax int64   // zone of the tail; valid when len(tail) > 0

	// blocks is the view's block table, built by the first BlockView call
	// and valid for as long as the view is: a claim or a settle changes
	// the form a shard's rows are held in, never the rows, and republishes.
	blocks atomic.Pointer[[]Block]

	// done is this view's sticky all-converged switch: every sealed
	// shard converged and no tail pending. Monotone per view (shard
	// convergence is sticky, the view itself immutable); a new view
	// starts false again.
	done atomic.Bool
	// quiet is the view's sticky quiescent switch (Quiescent): set by a
	// batch's claim probe that finds the view done with nothing to claim.
	quiet atomic.Bool
}

// Sharded is a range-partitioned progressive index that grows at the
// tail. It is safe for concurrent use; see the package comment for the
// execution model.
type Sharded struct {
	// pool sizes the tail-scan kernels and the partition pass; fanout
	// runs one query's per-shard tasks and is pool, or nil (serial) for a
	// table loaded as one shard (see New).
	pool           *parallel.Pool
	fanout         *parallel.Pool
	name           string
	factory        Factory
	sealRows       int
	budgetSizedFor int // Config.BudgetSizedFor (0 = δ-mode, no correction)

	// encoding is the shard storage mode.
	encoding encode.Mode

	// rowOrdered says every shard keeps its rows in row order, as packed
	// blocks (KeepRowOrder).
	rowOrdered bool

	// rr sequences idle-refinement steps round-robin through the
	// heat-ordered unconverged shards.
	rr atomic.Uint64

	// amu serializes structure writes (Append, tail sealing); readers
	// never take it — they load cur.
	amu       sync.Mutex
	tailStart int   // first logical row not covered by a sealed shard
	tailMin   int64 // zone of the pending tail (amu-guarded master copy)
	tailMax   int64

	// ext is the tail extent, owned by amu: the pending tail, the raw
	// rows from logical row tailStart on. Rows already written are never
	// mutated — Append writes past every published length or moves to a
	// larger array (appendExtent) — so views pin length-capped slices of
	// it exactly like a column snapshot. Every seal ends it (sealLocked)
	// and the next append starts a new one.
	ext []int64
	// vmin, vmax are the master copy of the logical column's zone.
	vmin, vmax int64

	cur atomic.Pointer[view]

	tailZones zoneCache // of the pending tail, for BlockView

	// sink, when set, receives convergence-timeline events (seal,
	// claim). A nil sink costs one atomic load per event site; the
	// Timeline's recording path itself never allocates, so events can
	// fire from inside the structure locks.
	sink atomic.Pointer[obs.Timeline]
}

// SetEventSink routes this table's structural events (tail seals,
// cold-shard claims, settles) into tl. Safe to call at any time; nil detaches.
func (s *Sharded) SetEventSink(tl *obs.Timeline) { s.sink.Store(tl) }

// Config sizes a Sharded index.
type Config struct {
	// Shards is the number of partitions S; it is clamped to [1, rows].
	Shards int
	// Workers sizes the cross-shard fan-out pool and the tail-scan
	// kernels: 0 means GOMAXPROCS, 1 executes survivors serially. With
	// Shards > 1 the fan-out is the parallelism and the factory's indexes
	// must run their kernels serially; a table loaded as one shard is
	// the other way round (see New; DESIGN.md section 9). Answers are
	// bit-identical at any value.
	Workers int
	// SealRows is the pending-tail size at which appended rows are
	// sealed into an indexed shard; 0 means the initial shard size
	// (rows/Shards), so grown shards match the loaded ones. It is also
	// the size below which a tail-born shard can still be absorbed by a
	// later seal (see sealLocked); at or above it a shard is final.
	SealRows int
	// BudgetSizedFor declares that each per-shard budgeter carries
	// 1/BudgetSizedFor of a wall-clock table budget (plan.Layout sets
	// it to the initial shard count when Options.Budget > 0). The
	// layer then multiplies budget scales by BudgetSizedFor/current so
	// one query still plans one table budget as sealed tails grow the
	// shard count. 0 means δ-mode budgets: fractions of each shard's
	// own rows, which must grow with the table and get no correction.
	BudgetSizedFor int
	// Encoding selects compressed shard storage (see the package
	// comment): shards are born cold as encode.Blocks, scanned in
	// place, and decoded for indexing only when claimed. The zero value
	// (raw) is exactly the pre-encoding behavior.
	Encoding encode.Mode
}

// ClaimHeat is the heat at which a cold shard is claimed: decoded and
// handed to the factory for progressive indexing. A cold shard that
// survived pruning this many times has a workload that will amortize
// the decode + progressive build it pays for.
const ClaimHeat = 16

// New partitions col into cfg.Shards contiguous row ranges and builds
// one index per shard with factory. The zone statistics of every shard
// are computed in a single parallel pass during partitioning and handed
// to column.NewWithStats, so no partition is scanned twice. The column
// itself is not retained: in raw mode the shards slice its backing array
// (so the caller must not append to it afterwards — the table grows
// through Append, into tail extents of its own), in encoded mode its
// rows are compressed and nothing refers to it.
//
// A table loaded as one shard has no fan-out to spread over the workers,
// so its factory may build indexes that run the parallel kernels
// themselves, under the shard lock; the shards its tail later seals
// then execute one after another on the calling goroutine. The two
// never mix: a goroutine waiting inside a kernel helps with whatever
// pool task is queued, and were that another query's fan-out task it
// would block on a shard lock while holding one.
func New(col *column.Column, cfg Config, factory Factory) (*Sharded, error) {
	if factory == nil {
		return nil, fmt.Errorf("shard: nil factory")
	}
	if err := cfg.Encoding.Check(); err != nil {
		return nil, err
	}
	n := col.Len()
	s := cfg.Shards
	if s < 1 {
		s = 1
	}
	if s > n {
		s = n
	}
	pool := parallel.New(cfg.Workers)
	encoded := cfg.Encoding.Compressed()

	shards := make([]*state, s)
	vals := col.Values()
	var firstErr atomic.Pointer[error]
	// One pass per shard: compute the zone map while the partition is
	// hot, then construct the shard column with NewWithStats (no second
	// min/max scan) and its index — or, in encoded mode, compress the
	// partition into cold blocks, whose pack folds the zone, and build
	// nothing: the partition's raw rows are not retained. Shards are
	// scanned concurrently; one shard, which has no fan-out, packs its
	// blocks over the pool instead.
	packPool := pool
	if s > 1 {
		packPool = nil
	}
	pool.Run(s, 1, func(_, a, b int) {
		for i := a; i < b; i++ {
			start, end := i*n/s, (i+1)*n/s
			part := vals[start:end:end]
			if encoded {
				shards[i] = newColdState(encode.Pack(packPool, part, cfg.Encoding), start, end)
				continue
			}
			mn, mx := col.Min(), col.Max() // one shard is the whole column
			if s > 1 {
				mn, mx = column.MinMax(part)
			}
			pcol, err := column.NewWithStats(part, mn, mx)
			if err == nil {
				shards[i] = &state{idx: factory(pcol), vals: part, start: start, end: end, min: mn, max: mx}
				continue
			}
			err = fmt.Errorf("shard %d [%d, %d): %w", i, start, end, err)
			firstErr.CompareAndSwap(nil, &err)
		}
	})
	if errp := firstErr.Load(); errp != nil {
		return nil, *errp
	}
	seal := cfg.SealRows
	if seal <= 0 {
		seal = n / s
	}
	if seal < 1 {
		seal = 1
	}
	name := "ENC"
	if !encoded {
		name = shards[0].idx.Name()
	}
	fanout := pool
	if s == 1 {
		fanout = nil
	}
	sh := &Sharded{
		pool:           pool,
		fanout:         fanout,
		name:           fmt.Sprintf("%s/S%d", name, s),
		factory:        factory,
		sealRows:       seal,
		budgetSizedFor: cfg.BudgetSizedFor,
		encoding:       cfg.Encoding,
		tailStart:      n,
		vmin:           col.Min(),
		vmax:           col.Max(),
	}
	if !encoded {
		for _, st := range shards {
			sh.noteBornDone(st) // an index that is terminal at birth
		}
	}
	sh.publishLocked(shards)
	return sh, nil
}

// budgetFactor keeps wall-clock budgets true as sealing grows the
// shard count: per-shard budgeters carry 1/BudgetSizedFor of the table
// budget, so with shardCount shards every scale shrinks by
// BudgetSizedFor/shardCount and one all-survivor query still plans one
// table budget. In δ mode (BudgetSizedFor 0) the factor is 1: δ work
// is a fraction of each shard's own rows and should grow with the
// table, exactly like the unsharded index's δ·N does.
func (s *Sharded) budgetFactor(shardCount int) float64 {
	if s.budgetSizedFor <= 0 || shardCount <= 0 {
		return 1
	}
	return float64(s.budgetSizedFor) / float64(shardCount)
}

// applyBudgetFactor rescales a HeatShares result in place.
func (s *Sharded) applyBudgetFactor(shares []float64, shardCount int) {
	if f := s.budgetFactor(shardCount); f != 1 {
		for k := range shares {
			shares[k] *= f
		}
	}
}

// publishLocked swaps in a fresh view of the current structure. The
// caller holds amu (or is the constructor, before the value escapes).
func (s *Sharded) publishLocked(shards []*state) {
	n := len(s.ext)
	s.cur.Store(&view{
		shards:  shards,
		rows:    s.tailStart + n,
		vmin:    s.vmin,
		vmax:    s.vmax,
		tail:    s.ext[:n:n],
		tailMin: s.tailMin,
		tailMax: s.tailMax,
	})
}

// Append implements the handle ingestion surface: the rows join the
// tail extent under the append mutex, the pending tail's zone map
// widens, and — once the tail reaches the seal threshold — the whole
// tail is sealed (sealLocked) into a shard with its own index and zone
// map, joining the pruning and heat-driven budget machinery like any
// loaded shard. A new structure view is published atomically, so queries
// started before Append returns see the old consistent snapshot and
// queries started after see the rows. An empty batch is a no-op; a
// batch with out-of-domain values is rejected atomically.
func (s *Sharded) Append(values []int64) error {
	if len(values) == 0 {
		return nil
	}
	mn, mx := column.MinMax(values)
	if mn <= -column.MaxMagnitude || mx >= column.MaxMagnitude {
		return fmt.Errorf("shard: appended values must lie strictly inside ±2^62 (min=%d max=%d)", mn, mx)
	}
	s.amu.Lock()
	defer s.amu.Unlock()
	if len(s.ext) == 0 {
		s.tailMin, s.tailMax = mn, mx
	} else {
		s.tailMin, s.tailMax = min(s.tailMin, mn), max(s.tailMax, mx)
	}
	s.vmin, s.vmax = min(s.vmin, mn), max(s.vmax, mx)
	s.ext = appendExtent(s.ext, values)
	shards := s.cur.Load().shards
	if len(s.ext) >= s.sealRows {
		if sealed, err := s.sealLocked(); err == nil {
			shards = sealed
		}
		// On an error (rows a column or an encoder refuses) the tail
		// simply keeps growing — scanned per query, still exact — and
		// sealing retries next time.
	}
	s.publishLocked(shards)
	return nil
}

// appendExtent appends values to the tail extent without disturbing
// what is published: within capacity the rows land past every pinned
// length; beyond it the extent moves to an array of twice the capacity
// and the old one lives on for as long as a view still pins it. Doubling
// keeps that cost at one copy per row.
func appendExtent(ext, values []int64) []int64 {
	if need := len(ext) + len(values); need > cap(ext) {
		grown := make([]int64, len(ext), max(2*cap(ext), need))
		copy(grown, ext)
		ext = grown
	}
	return append(ext, values...)
}

// sealLocked is the one place a shard is born after load: Append's
// threshold seal and FlushTail's idle flush both end here. The run
// being sealed starts as the pending tail and absorbs its left
// neighbour while that neighbour is tail-born, smaller than sealRows,
// and not in a higher power-of-two size class than the run has reached
// (absorbable) — the logarithmic method, so tail-born shards below
// sealRows keep strictly decreasing size classes left to right and at
// most ⌈log₂ sealRows⌉ of them exist however small the appends are.
// The merged shard covers the absorbed row ranges plus the tail, with
// the union zone and the summed heat/executes/refines; its rows are one
// copy of the run, and it is unindexed (raw mode: a lazy factory index
// over them, and where the table keeps row order their FOR-BP blocks
// beside them) or cold (encoded mode: their encode), and re-earns its
// index through the ordinary budget and idle slices.
// The absorbed states are not touched: queries still holding the old
// view finish against them. On error nothing has changed. Caller holds
// amu; the returned list is not yet published.
func (s *Sharded) sealLocked() ([]*state, error) {
	old := s.cur.Load().shards
	rows := len(s.ext)
	end := s.tailStart + rows
	mn, mx := s.tailMin, s.tailMax
	keep := len(old)
	for keep > 0 && s.absorbable(old[keep-1], rows) {
		keep--
		left := old[keep]
		rows += left.end - left.start
		mn, mx = min(mn, left.min), max(mx, left.max)
	}
	absorbed := old[keep:]
	start := end - rows

	// The run's rows go into one exact buffer — each absorbed shard's
	// blocks, in whatever form it holds them (appendBlocks), then the tail —
	// so every seal ends the extent and the shard owns its rows.
	buf := make([]int64, 0, rows)
	for _, a := range absorbed {
		for _, b := range a.appendBlocks(nil) {
			buf = b.AppendTo(buf)
		}
	}
	buf = append(buf, s.ext...)
	var st *state
	if s.encoding.Compressed() {
		// Appends ride raw and pay the encode here.
		st = newColdState(encode.Pack(nil, buf, s.encoding), start, end)
	} else {
		pcol, err := column.NewWithStats(buf, mn, mx)
		if err != nil {
			return nil, err
		}
		st = &state{idx: s.factory(pcol), vals: buf, start: start, end: end, min: mn, max: mx}
		if s.rowOrdered {
			// On the calling goroutine: a pool task it would help with
			// while it waits could need amu, which the seal holds.
			st.packed = encode.Pack(nil, buf, encode.ModeFORBP)
		}
	}
	// Published views pin the old extent; dropping the reference (rather
	// than truncating it) keeps them immutable.
	s.ext = nil
	st.tailBorn = true
	s.noteBornDone(st) // e.g. a full-index shard is terminal at birth
	for _, a := range absorbed {
		st.heat.Add(a.heat.Load())
		st.executes.Add(a.executes.Load())
		st.refines.Add(a.refines.Load())
	}
	s.tailStart = end

	shards := make([]*state, keep+1)
	copy(shards, old[:keep])
	shards[keep] = st
	s.sink.Load().Record(obs.EvShardSeal, int32(keep), float64(rows), float64(len(absorbed)))
	return shards, nil
}

// absorbable is the seal path's merge rule: a run of run rows takes its
// left neighbour when that shard was born from the tail, is still below
// the seal threshold, and its size class ⌊log₂ rows⌋ does not exceed
// the run's. Every absorbed row therefore lands in a shard of a higher
// size class than the one it leaves, which bounds how often a row is
// re-indexed by the number of classes below sealRows.
func (s *Sharded) absorbable(left *state, run int) bool {
	n := left.end - left.start
	return left.tailBorn && n < s.sealRows && bits.Len(uint(n)) <= bits.Len(uint(run))
}

// MaxShards is the shard count the seal path guarantees for a table
// loaded as loaded shards that has since ingested appended rows, however
// the appends were sized and however often an idle flush cut the tail:
// a tail-born shard of sealRows rows or more is final and there are at
// most ⌊appended/sealRows⌋ of them; the ones below sealRows hold
// distinct size classes, of which there are ⌈log₂ sealRows⌉.
func MaxShards(loaded, appended, sealRows int) int {
	return loaded + appended/sealRows + bits.Len(uint(sealRows-1))
}

// Name implements the index interface: the shard strategy's name plus
// the initial shard count, e.g. "PQ/S8".
func (s *Sharded) Name() string { return s.name }

// Shards returns the current sealed-shard count (grows as appended
// tails seal).
func (s *Sharded) Shards() int { return len(s.cur.Load().shards) }

// PendingRows returns the size of the unindexed pending tail.
func (s *Sharded) PendingRows() int { return len(s.cur.Load().tail) }

// ValueBounds returns the logical column's zone statistics, pending
// tail included.
func (s *Sharded) ValueBounds() (int64, int64) {
	v := s.cur.Load()
	return v.vmin, v.vmax
}

// survivors appends to dst the indices of shards whose zone map
// intersects [lo, hi] and returns it. An empty predicate (lo > hi, the
// canonical rewrite) survives nowhere.
func survivors(dst []int, shards []*state, lo, hi int64) []int {
	if lo > hi {
		return dst
	}
	for i, st := range shards {
		if st.max >= lo && st.min <= hi {
			dst = append(dst, i)
		}
	}
	return dst
}

// tailHit reports whether the view's pending tail can contain a
// matching row — the tail's zone-map pruning.
func (v *view) tailHit(lo, hi int64) bool {
	return len(v.tail) > 0 && lo <= hi && v.tailMax >= lo && v.tailMin <= hi
}

// partial is one surviving shard's contribution to a query.
type partial struct {
	agg   column.Agg
	stats query.Stats
	err   error
	cold  bool // answered by the packed rows' in-place scan, not an index
}

// scratch is the per-Execute working set, pooled so the steady-state
// (converged) read path performs zero heap allocations per query. The
// slices keep their capacity across queries; only growth allocates.
type scratch struct {
	surv   []int
	heats  []uint64
	shares []float64
	parts  []partial
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow resizes the scratch for n survivors, reusing capacity.
func (sc *scratch) grow(n int) {
	if cap(sc.heats) < n {
		sc.heats = make([]uint64, n)
		sc.parts = make([]partial, n)
	}
	sc.heats = sc.heats[:n]
	sc.parts = sc.parts[:n]
}

// Execute answers req exactly against a consistent structure snapshot:
// prune by zone map, fan the survivors out over the worker pool, scan
// the pending tail when its zone intersects, merge the partial
// aggregates in shard order (tail last — it holds the highest row
// numbers). Every surviving shard's heat is bumped, and this query's
// indexing budget is split across the survivors proportionally to
// heat, so hot shards converge first; pruned shards (and a pruned
// tail) perform zero work of any kind.
func (s *Sharded) Execute(req query.Request) (query.Answer, error) {
	return s.ExecuteAs(req, true, nil)
}

// ExecuteAs is Execute for one request of a batch. lead says the request
// carries the batch's indexing budget — the claim probe, the
// heat-weighted budget split, indexing enabled; a non-lead request (a
// batch follower, or any request of a batch a deadline clamped: claiming
// decodes a whole shard, exactly the work such a batch cannot afford)
// runs every shard suspended; a leader's pass ends by certifying the
// view quiescent if it is (Quiescent). tr, when non-nil, receives the fan-out
// span tree under tr.AttachPoint(): one span per shard — pruned shards
// get zero-duration spans with zero scanned rows, survivors get kernel
// timing, budget granted vs spent, rows touched, and encoding — plus
// tail-scan and merge spans.
func (s *Sharded) ExecuteAs(req query.Request, lead bool, tr *obs.Trace) (query.Answer, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	ans, err := s.executeOn(s.cur.Load(), sc, req, lead, tr)
	if lead {
		s.certify(s.cur.Load())
	}
	return ans, err
}

// executeOn is the one fan-out: it answers req against view v using the
// caller's pooled scratch, so a request over converged shards allocates
// nothing.
func (s *Sharded) executeOn(v *view, sc *scratch, req query.Request, lead bool, tr *obs.Trace) (query.Answer, error) {
	lo, hi, aggs, err := query.Prepare(req, v.vmin, v.vmax)
	if err != nil {
		return query.Answer{}, err
	}
	sc.surv = survivors(sc.surv[:0], v.shards, lo, hi)
	surv := sc.surv
	tailHit := v.tailHit(lo, hi)
	fanout := tr.Start(tr.AttachPoint(), "shard_fanout")
	if tr != nil {
		tr.Int(fanout, "shards", int64(len(v.shards)))
		tr.Int(fanout, "scanned", int64(len(surv)))
		tr.Int(fanout, "pruned", int64(len(v.shards)-len(surv)))
		tr.Bool(fanout, "tail_hit", tailHit)
	}
	if len(surv) == 0 && !tailHit {
		// Nothing can match: the empty answer, with zero work and no
		// lock taken. The phase stays truthful lock-free: Done once every
		// shard is and nothing is pending.
		s.tracePruned(tr, fanout, v, surv)
		tr.End(fanout)
		return query.NewAnswer(column.NewAgg(), aggs, s.prunedStats(v)), nil
	}

	// Heat first (so this query's own hits participate in the split and
	// the claim probe sees them), then at most one cold-shard claim,
	// then the budget shares over the survivors. Fully converged
	// survivor sets skip the share computation: their budgeters have
	// nothing left to plan.
	sc.grow(len(surv))
	heats, parts := sc.heats, sc.parts
	for k, i := range surv {
		heats[k] = v.shards[i].heat.Add(1)
	}
	var shares []float64
	if lead {
		if claimed := s.maybeClaim(v, surv, heats); claimed >= 0 && tr != nil {
			tr.Int(fanout, "claimed_shard", int64(claimed))
		}
		for _, i := range surv {
			if !v.shards[i].converged.Load() {
				sc.shares = costmodel.HeatShares(sc.shares, heats)
				shares = sc.shares
				s.applyBudgetFactor(shares, len(v.shards))
				break
			}
		}
	}

	sub := query.Request{Pred: req.Pred, Aggs: aggs}
	if s.fanout.Chunks(len(surv), 1) <= 1 {
		// Serial fan-out (one worker, at most one survivor, or a table
		// loaded as one shard): execute inline, with no closure or
		// fork/join overhead — the zero-allocation steady-state path for
		// selective queries on converged shards.
		s.executeSurvivors(v, surv, parts, shares, 0, len(surv), sub, lo, hi, !lead, tr, fanout)
	} else {
		s.fanout.Run(len(surv), 1, func(_, a, b int) {
			s.executeSurvivors(v, surv, parts, shares, a, b, sub, lo, hi, !lead, tr, fanout)
		})
	}
	s.tracePruned(tr, fanout, v, surv)
	ans, err := s.mergeAnswer(v, surv, parts, aggs, lo, hi, tailHit, tr, tr.AttachPoint())
	tr.End(fanout)
	return ans, err
}

// executeSurvivors runs survivors [a, b) of one request, each at its
// heat share of the budget (unit scale when shares is nil), filling
// parts positionally. It is the body of both the inline serial fan-out
// and a pool worker's chunk.
func (s *Sharded) executeSurvivors(v *view, surv []int, parts []partial, shares []float64, a, b int, sub query.Request, lo, hi int64, suspend bool, tr *obs.Trace, fanout obs.SpanID) {
	for k := a; k < b; k++ {
		scale := 1.0
		if shares != nil {
			scale = shares[k]
		}
		st := v.shards[surv[k]]
		if tr == nil {
			parts[k] = s.executeShard(st, sub, lo, hi, scale, suspend)
			continue
		}
		parts[k] = s.executeShardTraced(st, sub, lo, hi, scale, suspend, tr, fanout, surv[k])
	}
}

// maybeClaim decodes at most one cold survivor whose heat has crossed
// the claim threshold, building its progressive index over the raw rows
// — this is the only place compressed data is ever decompressed on the
// query path, and it is bounded to one shard per query so a scattered
// predicate cannot stall on S decodes at once. It returns the claimed
// shard's index, or -1 when nothing was claimed.
func (s *Sharded) maybeClaim(v *view, surv []int, heats []uint64) int {
	if !s.encoding.Compressed() {
		return -1 // a raw table has no cold shard
	}
	for k, i := range surv {
		if st := v.shards[i]; heats[k] >= ClaimHeat && st.claimable() {
			if s.claim(i, st) {
				return i
			}
			return -1
		}
	}
	return -1
}

// ClaimHot claims at most one cold shard whose heat has reached the
// claim threshold and returns its row count, 0 when there was none. It
// is maybeClaim for the columns no query of a batch led on — a table
// answers every query but the batch's leader clamped, and claims for the
// other columns when the batch ends — and, like a leader's pass, it ends
// by certifying the view quiescent if it is.
func (s *Sharded) ClaimHot() int {
	rows := 0
	for i, st := range s.cur.Load().shards {
		if s.encoding.Compressed() && st.heat.Load() >= ClaimHeat && st.claimable() {
			if s.claim(i, st) {
				rows = st.end - st.start
			}
			break
		}
	}
	s.certify(s.cur.Load())
	return rows
}

// certify ends a batch's claim probe (ClaimHot, or a leader's pass): it
// marks v quiescent once v is done and no cold shard is left to claim.
func (s *Sharded) certify(v *view) {
	if v.quiet.Load() || !v.allDone() {
		return
	}
	for _, st := range v.shards {
		if s.encoding.Compressed() && st.claimable() {
			return
		}
	}
	v.quiet.Store(true)
}

// claimable is the lock-free half of the claim test: still cold, and
// not a shard whose one claim failed.
func (st *state) claimable() bool { return st.cold.Load() && st.claimErr.Load() == nil }

// claim decompresses cold shard i and opens it for progressive
// indexing: decode under the write lock, factory over the raw rows,
// converged cleared so the heat-weighted budget machinery takes over.
// The decoded rows are retained (they are the index's base); the blocks
// are dropped, unless the table keeps row order: there they stay, the
// rows the shard settles into. The shard list is then republished, so the
// fresh view's all-converged switch restarts false and its block table
// is rebuilt over the raw rows. Every ingest path has proved the domain
// of the rows, so the column the index is built over is not expected to
// refuse them; if it does, the shard stays cold and exact for good and
// keeps the error, rather than being decoded under its write lock again
// on every later crossing.
func (s *Sharded) claim(i int, st *state) bool {
	st.mu.Lock()
	if st.idx != nil || st.claimErr.Load() != nil {
		st.mu.Unlock()
		return false // lost the race to another query's claim
	}
	vals := st.packed.AppendTo(make([]int64, 0, st.end-st.start))
	pcol, err := column.NewWithStats(vals, st.min, st.max)
	if err != nil {
		st.claimErr.Store(&err)
		st.mu.Unlock()
		return false
	}
	st.idx = s.factory(pcol)
	st.vals = vals
	if !s.rowOrdered {
		st.packed = nil
	}
	st.cold.Store(false)
	st.converged.Store(false)
	s.noteBornDone(st) // a terminal-at-birth factory index (e.g. FI)
	st.mu.Unlock()
	s.sink.Load().Record(obs.EvShardClaim, int32(i), float64(st.end-st.start), 0)
	s.republish()
	return true
}

// republish publishes the current shard list again, and returns it: what
// a claim and a settle do once a shard has changed the form it holds its
// rows in, so that the fresh view's all-converged switch and block table
// start over.
func (s *Sharded) republish() []*state {
	s.amu.Lock()
	defer s.amu.Unlock()
	shards := s.cur.Load().shards
	s.publishLocked(shards)
	return shards
}

// executeShard runs one sub-request against one shard under its lock.
// A converged shard takes the shared lock (read-only execution, any
// number of concurrent queries): a cold one scans its packed blocks in
// place with the clamped bounds, any other — settled or row-ordered ones
// included, whose packed blocks no query reads — answers through its
// index. An unconverged shard takes the write lock and spends one slice
// (sliceLocked).
func (s *Sharded) executeShard(st *state, sub query.Request, lo, hi int64, scale float64, suspend bool) partial {
	st.executes.Add(1)
	if st.converged.Load() {
		st.mu.RLock()
		if st.idx == nil {
			p := coldPartial(st.packed.AggRange(lo, hi, sub.Aggs))
			st.mu.RUnlock()
			return p
		}
		if st.converged.Load() {
			ans, err := st.idx.Execute(sub)
			st.mu.RUnlock()
			return partial{agg: query.AnswerAgg(ans), stats: ans.Stats, err: err}
		}
		// A claim slipped in between the converged probe and the lock:
		// the shard is open for indexing again, so take the write path.
		st.mu.RUnlock()
	}
	st.mu.Lock()
	if st.idx == nil {
		// Cold shards are converged by construction, so reaching the
		// write path with one means the probe raced a seal/claim
		// transition; the in-place scan is still the right answer.
		p := coldPartial(st.packed.AggRange(lo, hi, sub.Aggs))
		st.mu.Unlock()
		return p
	}
	ans, settled, err := s.sliceLocked(st, sub, scale, suspend)
	st.mu.Unlock()
	if settled {
		s.publishSettled(st)
	}
	return partial{agg: query.AnswerAgg(ans), stats: ans.Stats, err: err}
}

// sliceLocked is the one write-path step of a shard that has an index,
// query-borne or idle: req runs on the index under the slice's budget —
// the heat-weighted scale, or suspended (a batch pays one budget).
// settled says this slice converged the index and settled the shard
// (noteIndexDone), and the caller publishes it (publishSettled) once it
// has released the lock. Caller holds st.mu for writing.
func (s *Sharded) sliceLocked(st *state, req query.Request, scale float64, suspend bool) (ans query.Answer, settled bool, err error) {
	ans, err = st.idx.ExecuteSlice(req, scale, suspend)
	if err == nil {
		settled = s.noteIndexDone(st)
	}
	return ans, settled, err
}

// coldPartial shapes a compressed in-place scan's contribution: no
// indexing work, terminal phase (cold is the shard's serving steady
// state until a claim re-opens it).
func coldPartial(agg column.Agg) partial {
	return partial{agg: agg, stats: query.Stats{Phase: query.PhaseDone}, cold: true}
}

// mergeAnswer folds the survivors' partials, in shard order, into one
// Answer, then the pending tail's scan (the tail holds the highest row
// numbers, so it merges last). Work stats are additive (each shard
// really did that work); the phase reported is the furthest-behind
// phase among the survivors, with a scanned tail pinning it to
// creation — unindexed rows are by definition not past creation. tr,
// when non-nil, receives merge and tail-scan spans under parent (the
// hot path passes nil, which costs a nil test per span site).
func (s *Sharded) mergeAnswer(v *view, surv []int, parts []partial, aggs column.Aggregates, lo, hi int64, tailHit bool, tr *obs.Trace, parent obs.SpanID) (query.Answer, error) {
	agg := column.NewAgg()
	var stats query.Stats
	stats.Workers = s.pool.Workers()
	stats.Phase = query.PhaseDone
	stats.ShardsScanned = len(surv)
	stats.ShardsPruned = len(v.shards) - len(surv)
	total := float64(v.rows)
	ms := tr.Start(parent, "merge")
	for k := range parts {
		if parts[k].err != nil {
			tr.End(ms)
			return query.Answer{}, parts[k].err
		}
		agg.Merge(parts[k].agg)
		st := &parts[k].stats
		rows := float64(v.shards[surv[k]].end - v.shards[surv[k]].start)
		stats.Delta += st.Delta * rows / total // fraction of the whole column indexed
		stats.WorkSeconds += st.WorkSeconds
		stats.BaseSeconds += st.BaseSeconds
		stats.Predicted += st.Predicted
		stats.AlphaElems += st.AlphaElems
		if st.Phase < stats.Phase {
			stats.Phase = st.Phase
		}
	}
	tr.End(ms)
	if tailHit {
		ts := tr.Start(parent, "tail_scan")
		tr.Int(ts, "rows", int64(len(v.tail)))
		agg.Merge(column.ParAggRange(s.pool, v.tail, lo, hi, aggs))
		tr.End(ts)
		stats.Phase = query.PhaseCreation
	}
	v.allDone()
	return query.NewAnswer(agg, aggs, stats), nil
}

// prunedStats is the Stats of a query whose every shard (and the tail)
// was pruned: zero work, with the phase a lock-free caller can still
// know.
func (s *Sharded) prunedStats(v *view) query.Stats {
	st := query.Stats{Workers: s.pool.Workers(), ShardsPruned: len(v.shards)}
	if v.done.Load() {
		st.Phase = query.PhaseDone
	}
	return st
}

// allDone refreshes and reports the view's sticky all-converged switch.
// The flag belongs to the (immutable) view, so a concurrent Append cannot
// be lost: it publishes a fresh view whose flag starts false.
func (v *view) allDone() bool {
	if !v.done.Load() && len(v.tail) == 0 {
		for _, st := range v.shards {
			if !st.converged.Load() {
				return false
			}
		}
		v.done.Store(true)
	}
	return v.done.Load()
}

// executeShardTraced wraps executeShard in a per-shard span: the span
// duration is the shard's kernel + lock time, and the attributes
// record what the budget split granted versus what the index actually
// spent. Runs on pool workers; Trace recording is mutex-protected.
func (s *Sharded) executeShardTraced(st *state, sub query.Request, lo, hi int64, scale float64, suspend bool, tr *obs.Trace, parent obs.SpanID, shardIdx int) partial {
	sp := tr.Start(parent, "shard")
	tr.Int(sp, "shard", int64(shardIdx))
	tr.Int(sp, "rows", int64(st.end-st.start))
	tr.Float(sp, "budget_scale", scale)
	if suspend {
		tr.Bool(sp, "suspended", true)
	}
	p := s.executeShard(st, sub, lo, hi, scale, suspend)
	_, enc, _ := st.encodingInfo()
	tr.Str(sp, "encoding", enc)
	tr.Float(sp, "budget_spent_s", p.stats.WorkSeconds)
	scanned := int64(p.stats.AlphaElems)
	if p.stats.Phase == query.PhaseCreation || p.cold {
		// A creation-phase scan touches the raw rows and a cold answer
		// the packed ones, not index-resident elements: the row count is
		// the honest figure. Past creation α is — zero for a converged
		// shard that matched nothing or only counted. A strategy that
		// reports no phase (FI too) always shows its row count here.
		scanned = int64(st.end - st.start)
	}
	tr.Int(sp, "rows_scanned", scanned)
	tr.End(sp)
	return p
}

// tracePruned emits one zero-duration, zero-work span per pruned
// shard so a trace accounts for every shard the table has: the span
// tree and ShardStats must tell the same story. surv is ascending.
func (s *Sharded) tracePruned(tr *obs.Trace, parent obs.SpanID, v *view, surv []int) {
	if tr == nil {
		return
	}
	at := time.Now()
	next := 0
	for i := range v.shards {
		if next < len(surv) && surv[next] == i {
			next++
			continue
		}
		sp := tr.StartAt(parent, "shard", at)
		tr.Int(sp, "shard", int64(i))
		tr.Bool(sp, "pruned", true)
		tr.Int(sp, "rows_scanned", 0)
		tr.EndAt(sp, at)
	}
}

// idleRequest is the canonical no-client-query request RefineStep
// executes: a predicate rewritten to the in-domain empty range, so the
// call is almost pure indexing work.
var idleRequest = query.Request{Pred: query.Range(1, 0), Aggs: column.AggCount}

// RefineStep is one idle-time slice of a single-column table:
// RefineShard, or FlushTail once every sealed shard has converged (the
// shard the tail seals into then converges via the following slices).
// It returns the slice's work stats and whether every shard is now
// converged with nothing pending.
func (s *Sharded) RefineStep() (query.Stats, bool) {
	if s.cur.Load().done.Load() {
		return query.Stats{}, true
	}
	st, refined := s.RefineShard()
	if !refined {
		s.FlushTail()
	}
	return st, s.Converged()
}

// RefineShard spends one indexing-budget slice on the next shard in
// heat order — unconverged shards sorted hottest-first, visited round-
// robin so ties (and the cold tail) still make progress. The budget
// scale is the shard count: an idle slice concentrates the full
// per-query budget on one shard, so an idle Sharded index converges in
// about as much wall-clock as an idle unsharded one, hot shards first.
// It returns the slice's work stats, and false when no sealed shard is
// left to refine.
func (s *Sharded) RefineShard() (query.Stats, bool) {
	v := s.cur.Load()
	target := s.nextRefineTarget(v)
	if target == nil {
		return query.Stats{}, false
	}
	// Concentrate one full table budget on this shard: S slices of 1/S
	// in δ mode, BudgetSizedFor slices of 1/BudgetSizedFor in wall-clock
	// mode (the factor cancels the grown shard count).
	target.mu.Lock()
	ans, settled, err := s.sliceLocked(target, idleRequest, float64(len(v.shards))*s.budgetFactor(len(v.shards)), false)
	target.mu.Unlock()
	if settled {
		s.publishSettled(target)
	}
	target.refines.Add(1)
	if err != nil {
		return query.Stats{}, true
	}
	return ans.Stats, true
}

// Refinable reports whether RefineShard has a shard to refine: one
// whose index has not converged. Rows pending in the tail are not such
// work; only a flush (FlushTail) absorbs them.
func (s *Sharded) Refinable() bool {
	for _, st := range s.cur.Load().shards {
		if !st.converged.Load() {
			return true
		}
	}
	return false
}

// FlushTail seals the current pending tail regardless of the size
// threshold, merged into the small tail-born shards before it
// (sealLocked): the idle-time ingestion drain, by which a quiet table
// absorbs its ingested rows completely and reaches the terminal state
// without leaving one shard per append behind. A multi-column table
// calls it on every column under one lock, so its columns seal the same
// rows.
func (s *Sharded) FlushTail() {
	s.amu.Lock()
	defer s.amu.Unlock()
	if len(s.ext) == 0 {
		return // nothing pending, or a concurrent seal beat us to it
	}
	shards, err := s.sealLocked()
	if err != nil {
		return
	}
	s.publishLocked(shards)
}

// nextRefineTarget picks the round-robin cursor's shard among the
// unconverged ones ordered by heat (descending, shard index breaking
// ties), or nil when everything converged.
func (s *Sharded) nextRefineTarget(v *view) *state {
	type cand struct {
		heat uint64
		i    int
	}
	cands := make([]cand, 0, len(v.shards))
	for i, st := range v.shards {
		if !st.converged.Load() {
			cands = append(cands, cand{st.heat.Load(), i})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	// Heat descending, shard index breaking ties. O(S log S) per slice
	// keeps even a 4096-shard idle loop's ordering cost negligible next
	// to the budget slice it schedules.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].heat != cands[b].heat {
			return cands[a].heat > cands[b].heat
		}
		return cands[a].i < cands[b].i
	})
	return v.shards[cands[int(s.rr.Add(1)-1)%len(cands)].i]
}

// Converged reports whether every shard reached its terminal state —
// its index converged and, where the shard settles, its raw rows
// dropped — and no appended rows are pending.
func (s *Sharded) Converged() bool { return s.cur.Load().allDone() }

// Quiescent reports whether a batch has found the table with no index
// work to hand out: Converged, and no cold shard left for a claim to
// open. Only a batch's claim probe decides it, once per published view —
// idle refinement does not — so the first query after the table changed
// runs in a batch.
func (s *Sharded) Quiescent() bool { return s.cur.Load().quiet.Load() }

// Progress returns the row-weighted mean convergence fraction across
// shards' indexes, exactly 1 once all shards converged and nothing is
// pending; unindexed tail rows count as zero progress. A settle adds no
// step of its own: a shard settles on the slice that converges its index.
//
// It is monotone only between structural events, and three of them can
// lower it: an append (its rows wait unindexed in the tail); a claim (a
// cold shard counts as done until the claim gives it an index that
// starts at zero); and a seal that merges converged tail-born shards
// (the merged shard's index starts again). Between them no query or
// refinement step lowers it.
func (s *Sharded) Progress() float64 {
	v := s.cur.Load()
	if v.done.Load() {
		return 1
	}
	var weighted float64
	for _, st := range v.shards {
		rows := float64(st.end - st.start)
		if st.converged.Load() {
			weighted += rows
			continue
		}
		st.mu.RLock()
		weighted += rows * st.idx.Progress()
		st.mu.RUnlock()
	}
	return weighted / float64(v.rows)
}

// Phase reports the furthest-behind lifecycle phase across the shards'
// indexes. A fully converged sharded index reports PhaseDone, and so does
// a cold shard — cold is a terminal serving state, whatever strategy a
// claim would build; a pending tail pins the phase to creation (its rows
// are not indexed at all).
func (s *Sharded) Phase() query.Phase {
	v := s.cur.Load()
	if len(v.tail) > 0 {
		return query.PhaseCreation
	}
	min := query.PhaseDone
	for _, st := range v.shards {
		if st.converged.Load() {
			continue
		}
		st.mu.RLock()
		if ph := st.idx.Phase(); ph < min {
			min = ph
		}
		st.mu.RUnlock()
	}
	return min
}

// The forms a shard holds its rows in, as Info.Form spells them.
const (
	FormRaw     = "raw"
	FormCold    = "cold"
	FormSettled = "settled"
)

// encodingInfo reports the form the shard holds its rows in, their
// encoding, and the shard's resident payload size, which counts every
// form the shard holds them in: 8·rows for raw rows, the packed-word
// footprint of the blocks of a cold or a row-ordered shard, and what a
// settled shard's converged index holds — the four progressive algorithms
// say (core's SizeBytes): a B+-tree over packed leaves. The encoding is
// raw for raw rows, and otherwise the row-ordered blocks' kind, or FOR-BP
// where the leaves are the rows.
func (st *state) encodingInfo() (form, kind string, bytes int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	kind = encode.KindFORBP.String()
	if st.packed != nil {
		kind, bytes = st.packed.Kind().String(), st.packed.SizeBytes()
	}
	switch {
	case st.vals != nil:
		return FormRaw, encode.KindRaw.String(), bytes + 8*len(st.vals)
	case st.idx == nil:
		return FormCold, kind, bytes
	}
	if idx, ok := st.idx.(interface{ SizeBytes() int }); ok {
		bytes += idx.SizeBytes()
	}
	return FormSettled, kind, bytes
}

// Info is a point-in-time snapshot of one shard, for the stats
// endpoints and the benchmark's pruning verification.
type Info struct {
	Rows      int     `json:"rows"`
	MinValue  int64   `json:"min_value"`
	MaxValue  int64   `json:"max_value"`
	Heat      uint64  `json:"heat"`
	Executes  uint64  `json:"executes"`
	Refines   uint64  `json:"refine_slices"`
	Converged bool    `json:"converged"`
	Progress  float64 `json:"convergence"`
	// Phase is the shard index's lifecycle phase ("done" for converged
	// and cold shards).
	Phase string `json:"phase,omitempty"`
	// Form is how the shard holds its rows: FormRaw (an index over raw
	// rows: a raw-mode or a claimed shard), FormCold (packed blocks, no
	// index) or FormSettled (a converged index whose packed leaves are the
	// rows). Where the table keeps row order, a raw or settled shard also
	// holds packed blocks, which it keeps from load or seal to the end.
	// Encoding is the rows' encoding ("raw" in the raw form) and Bytes
	// the shard's resident payload size, every form it holds counted —
	// 8·rows raw (an index's working arrays are not in it), the blocks'
	// packed-word footprint, and a settled shard's converged index: its
	// keys, prefix sums and packed leaves.
	Form     string `json:"form"`
	Encoding string `json:"encoding"`
	Bytes    int    `json:"resident_bytes"`
	// ClaimError is why the shard's claim failed; such a shard stays
	// cold for good.
	ClaimError string `json:"claim_error,omitempty"`
}

// ShardStats snapshots every sealed shard. A shard with Executes == 0
// and Refines == 0 has performed zero scan and zero indexing work —
// the observable guarantee behind zone-map pruning. The pending tail
// is not a shard; see PendingRows.
func (s *Sharded) ShardStats() []Info {
	v := s.cur.Load()
	out := make([]Info, len(v.shards))
	for i, st := range v.shards {
		info := Info{
			Rows:     st.end - st.start,
			MinValue: st.min,
			MaxValue: st.max,
			Heat:     st.heat.Load(),
			Executes: st.executes.Load(),
			Refines:  st.refines.Load(),
		}
		info.Form, info.Encoding, info.Bytes = st.encodingInfo()
		if errp := st.claimErr.Load(); errp != nil {
			info.ClaimError = (*errp).Error()
		}
		if st.converged.Load() {
			info.Converged, info.Progress = true, 1
			info.Phase = query.PhaseDone.String()
		} else {
			st.mu.RLock()
			info.Converged, info.Progress = st.idx.Converged(), st.idx.Progress()
			info.Phase = st.idx.Phase().String()
			st.mu.RUnlock()
		}
		out[i] = info
	}
	return out
}

// MaterializeRows returns a fresh copy of every logical row, shard by
// shard in row order and the pending tail last — the raw-extraction
// surface, since the table keeps no base column: Snapshot, decoded. Cold
// and settled shards decode into the output, neither claimed nor unsettled
// by it, raw ones copy their rows; a settled shard that keeps no row order
// gives its rows sorted, as its index's leaves hold them.
func (s *Sharded) MaterializeRows() []int64 {
	bv, n := s.Snapshot()
	rows := make([]int64, 0, n)
	for i := range bv {
		rows = bv[i].AppendTo(rows)
	}
	return rows
}

// Snapshot returns the table's rows, and their count, as the last view an
// Append or a seal published holds them — its BlockView, loaded under amu
// so that no append in flight is missed — for a reader that decodes them a
// block at a time (a checkpoint's writer) and never holds a copy of the
// table. Later appends, seals and settles leave the blocks as they are.
func (s *Sharded) Snapshot() ([]Block, int) {
	s.amu.Lock()
	v := s.cur.Load()
	s.amu.Unlock()
	return s.blockView(v), v.rows
}
