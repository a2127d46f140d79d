// Package catalog is the serving layer's table registry: named tables,
// each one plan.Table — of one column for a single-column table — with
// a load → ready → dropped lifecycle and per-table strategy/budget
// options. The catalog owns no goroutines and performs
// no scheduling — it is the shared state the server's per-table
// schedulers and the stats endpoints read — so its locking is a plain
// RWMutex over the name → table map, never held across index work.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
)

// Status is a table's lifecycle state.
type Status int32

// Lifecycle states, in order.
const (
	// StatusLoading: the column and index are being built; the table is
	// visible in the catalog but not yet queryable.
	StatusLoading Status = iota
	// StatusReady: queryable.
	StatusReady
	// StatusDropped: removed from the catalog; handles still held by
	// in-flight requests observe this state and fail cleanly.
	StatusDropped
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusLoading:
		return "loading"
	case StatusReady:
		return "ready"
	case StatusDropped:
		return "dropped"
	default:
		return fmt.Sprintf("Status(%d)", int32(s))
	}
}

// Options are the per-table indexing knobs, the plan.Options a table is
// built with plus the idle-refinement switch and the schema.
type Options struct {
	// Strategy selects the indexing algorithm (default PQ): one of the
	// four progressive algorithms, the only strategies a table serves.
	Strategy plan.Strategy
	// Delta, Budget, Adaptive and Workers have the plan.Options meanings.
	Delta    float64
	Budget   time.Duration
	Adaptive bool
	Workers  int
	// Shards range-partitions the table into this many contiguous
	// row-range shards, each with its own progressive index and zone
	// map (shard.Sharded); 0 or 1 means one unsharded index. Idle
	// refinement on a sharded table round-robins the heat-ordered
	// shards, so the regions the workload touches converge first.
	Shards int
	// IdleRefine enables idle-time background refinement for this
	// table's scheduler; nil means on.
	IdleRefine *bool
	// Encoding selects compressed columnar storage (encode.Mode):
	// compressed tables keep no raw base column — shards serve queries
	// from packed segments and decompress only when the workload's heat
	// claims them — and their snapshots persist compressed too. The zero
	// value (raw) is the uncompressed default.
	Encoding encode.Mode
	// Columns names the table's schema. Empty or one name is a
	// single-column table; two or more give one row-aligned store and one
	// progressive index per column, fed by flat row-major tuples
	// (len(Columns) values per row) and queried with conjunctions through
	// the selectivity-driven planner.
	Columns []string
}

// schema is the column list the table is built with: Columns, or one
// column under a default name when none was given.
func (o Options) schema() []string {
	if len(o.Columns) == 0 {
		return []string{"value"}
	}
	return o.Columns
}

// RowWidth is the number of values per logical row: len(Columns) for a
// multi-column table, 1 otherwise.
func (o Options) RowWidth() int {
	if len(o.Columns) > 1 {
		return len(o.Columns)
	}
	return 1
}

// IdleRefineEnabled resolves the tri-state IdleRefine switch.
func (o Options) IdleRefineEnabled() bool { return o.IdleRefine == nil || *o.IdleRefine }

// planOptions projects the catalog options onto the table's.
func (o Options) planOptions() plan.Options {
	return plan.Options{
		Strategy: o.Strategy,
		Delta:    o.Delta,
		Budget:   o.Budget,
		Adaptive: o.Adaptive,
		Workers:  o.Workers,
		Shards:   o.Shards,
		Encoding: o.Encoding,
	}
}

// Table is one named, progressive-indexed table. The index handle is a
// *plan.Table, safe for concurrent use, so reads after convergence
// already share locks; the server's scheduler adds batching and idle
// refinement on top of the same handle. The handle holds the rows and
// owns their growth: Append routes through it, and the catalog only
// keeps the ingest counters that feed Info.
type Table struct {
	name    string
	idx     *plan.Table
	opts    Options
	created time.Time
	status  atomic.Int32

	// log is the table's write-ahead log when the catalog is durable
	// (durability.go); nil on an ephemeral catalog. snapProgress is the
	// index progress recorded by the newest snapshot (Float64bits), the
	// signal NeedsCheckpoint uses to persist idle-refinement work.
	log          *durable.TableLog
	snapProgress atomic.Uint64

	// ingest orders a batch's rows against its WAL frame: Append, SyncLog
	// and RollbackLog hold it across their writes and CaptureCheckpoint
	// across its reads, so a capture's rows are exactly the frames through
	// its Seq wherever it runs. Taken before the handle's own lock.
	// staged holds the rows of the frames logged since the last SyncLog,
	// one batch a frame, which no query sees.
	ingest sync.Mutex
	staged [][]int64

	// rows mirrors the logical row count (loaded + appended); atomic so
	// Info snapshots never race the handle-locked column growth.
	rows       atomic.Int64
	appends    atomic.Uint64
	appendRows atomic.Uint64

	// obs is the table's observability state (convergence timeline +
	// histograms); nil when the catalog has no registry attached. Every
	// obs type is nil-tolerant, so hooks below need no branching.
	obs *obs.Table
}

// Obs returns the table's observability state (nil when the catalog
// has no registry).
func (t *Table) Obs() *obs.Table { return t.obs }

// timeline returns the table's convergence timeline; nil (a no-op
// sink) when observability is not attached.
func (t *Table) timeline() *obs.Timeline {
	if t.obs == nil {
		return nil
	}
	return t.obs.Timeline
}

// Name returns the table's catalog name.
func (t *Table) Name() string { return t.name }

// Len returns the logical row count (tuples, not values), appended
// rows included.
func (t *Table) Len() int { return int(t.rows.Load()) }

// RowWidth is the number of values per logical row (1 for a
// single-column table).
func (t *Table) RowWidth() int { return t.opts.RowWidth() }

// Columns returns the table's schema: the configured column names for
// a multi-column table, nil for a single-column one.
func (t *Table) Columns() []string {
	if t.opts.RowWidth() > 1 {
		return t.opts.Columns
	}
	return nil
}

// Handle returns the table's index handle, concretely typed: what the
// scheduler drives.
func (t *Table) Handle() *plan.Table { return t.idx }

// Planned returns the handle of a multi-column table, the one a
// composite query has a planner to go through (ok == false for
// single-column tables).
func (t *Table) Planned() (*plan.Table, bool) { return t.idx, t.RowWidth() > 1 }

// ErrLogWrite marks an append whose WAL frame could not be written:
// nothing of the batch is logged or visible, so the client may retry it.
var ErrLogWrite = errors.New("catalog: WAL write failed")

// ErrDropped and ErrLoading are what a refused append to a table that
// is not ready wraps: the table was dropped, or it is still loading or
// recovering. A load or recovery that a drop overtook wraps ErrDropped
// too, and a load of a name already taken wraps ErrExists.
var (
	ErrDropped = errors.New("dropped")
	ErrLoading = errors.New("loading")
	ErrExists  = errors.New("already exists")
)

// Append ingests values, flat row-major tuples on a multi-column table,
// at the tail of the table. The batch is checked whole first
// (plan.Table.CheckAppend), so a refused one leaves no trace. A durable
// table logs it and stages it out of every query's sight until SyncLog
// publishes it (values must not change before then); an ephemeral one
// publishes at once. Published rows are visible to every query that
// starts afterwards, and the index absorbs them under its normal
// per-query budget. Appending to a table that is not ready fails.
func (t *Table) Append(values []int64) error {
	if st := t.Status(); st != StatusReady {
		cause := ErrLoading
		if st == StatusDropped {
			cause = ErrDropped
		}
		return fmt.Errorf("catalog: table %q not ready: %w", t.name, cause)
	}
	if err := t.idx.CheckAppend(values); err != nil {
		return fmt.Errorf("catalog: append to %q: %w", t.name, err)
	}
	if len(values) == 0 {
		return nil
	}
	t.ingest.Lock()
	defer t.ingest.Unlock()
	if t.log == nil {
		return t.publish(values)
	}
	if _, err := t.log.Append(values); err != nil {
		return fmt.Errorf("%w: append to %q: %v", ErrLogWrite, t.name, err)
	}
	t.staged = append(t.staged, values)
	return nil
}

// publish hands a checked batch to the index and counts it. Caller holds
// ingest.
func (t *Table) publish(values []int64) error {
	if err := t.idx.Append(values); err != nil {
		return fmt.Errorf("catalog: append to %q: %w", t.name, err)
	}
	n := len(values) / t.RowWidth()
	t.rows.Add(int64(n))
	t.appends.Add(1)
	t.appendRows.Add(uint64(n))
	return nil
}

// Options returns the options the table was loaded with.
func (t *Table) Options() Options { return t.opts }

// Handle is the served table as Table.Index returns it: plain Execute
// plus what drives a table from outside the scheduler — idle-time
// refinement, live ingestion and the convergence probes. It has exactly
// one implementation, plan.Table, which the catalog and the scheduler
// hold; the interface is kept because benchmark/traced.go type-asserts
// on Index()'s value (ROADMAP item 0).
type Handle interface {
	query.Index
	// RefineStep spends one indexing-budget slice with no client query
	// attached, returning the work stats and whether the handle is now
	// fully converged.
	RefineStep() (query.Stats, bool)
	// Append ingests new rows at the tail of the table. The rows are
	// visible to every query that starts after Append returns; the
	// index absorbs them progressively under the same per-query budget
	// discipline as its initial build (see shard.Sharded.Append).
	Append(values []int64) error
	// Progress reports the convergence fraction in [0, 1].
	Progress() float64
	// PendingRows is the number of appended rows no index covers yet.
	PendingRows() int
}

// Index returns Handle's value behind the interface benchmark/ asserts on.
func (t *Table) Index() Handle { return t.idx }

// ShardCount reports how many shards back a single-column table: the
// partition count (one when unsharded; lower than the requested
// Options.Shards on tiny tables, where the count is clamped to the row
// count) plus the shards its appended tail has sealed. A multi-column
// table reports 1.
func (t *Table) ShardCount() int {
	if t.RowWidth() > 1 {
		return 1
	}
	return t.idx.Shards()
}

// ShardStats snapshots the per-shard state of a single-column table
// (ok == false for multi-column tables).
func (t *Table) ShardStats() ([]shard.Info, bool) {
	if t.RowWidth() > 1 {
		return nil, false
	}
	return t.idx.ShardStats(), true
}

// Status returns the lifecycle state.
func (t *Table) Status() Status { return Status(t.status.Load()) }

// Info is a point-in-time JSON-friendly snapshot of a table. Its
// Progress (the wire's convergence) is monotone only between appends,
// claims and merging seals (see shard.Sharded.Progress).
type Info struct {
	Name     string `json:"name"`
	Rows     int    `json:"rows"`
	MinValue int64  `json:"min_value"`
	MaxValue int64  `json:"max_value"`
	Strategy string `json:"strategy"`
	Shards   int    `json:"shards"`
	Encoding string `json:"encoding,omitempty"`
	// Columns is the schema of a multi-column table (absent for the v1
	// single-column layout); Rows counts logical tuples either way, and
	// MinValue/MaxValue bound the first column.
	Columns []string `json:"columns,omitempty"`
	Status  string   `json:"status"`
	// Appends counts Append calls absorbed; AppendedRows the rows they
	// carried (Rows already includes them).
	Appends      uint64  `json:"appends"`
	AppendedRows uint64  `json:"appended_rows"`
	PendingRows  int     `json:"pending_rows,omitempty"`
	Phase        string  `json:"phase,omitempty"`
	Converged    bool    `json:"converged"`
	Progress     float64 `json:"convergence"`
	IdleInfo     bool    `json:"idle_refine"`
	CreatedAt    string  `json:"created_at"`
	// Durability is the WAL/snapshot view of the table; omitted on an
	// ephemeral catalog.
	Durability *DurabilityInfo `json:"durability,omitempty"`
}

// Info snapshots the table's externally visible state. A table still
// loading (index handle not yet attached) reports zero convergence.
func (t *Table) Info() Info {
	info := Info{
		Name:         t.name,
		Rows:         t.Len(),
		Columns:      t.Columns(),
		Strategy:     t.opts.Strategy.String(),
		Shards:       t.ShardCount(),
		Status:       t.Status().String(),
		Appends:      t.appends.Load(),
		AppendedRows: t.appendRows.Load(),
		IdleInfo:     t.opts.IdleRefineEnabled(),
		CreatedAt:    t.created.UTC().Format(time.RFC3339),
		Durability:   t.durabilityInfo(),
	}
	if t.opts.Encoding.Compressed() {
		info.Encoding = t.opts.Encoding.String()
	}
	if t.Status() == StatusLoading {
		// The zone isn't knowable until the handle attaches.
		return info
	}
	info.MinValue, info.MaxValue = t.idx.ValueBounds()
	info.PendingRows = t.idx.PendingRows()
	info.Converged = t.idx.Converged()
	info.Progress = t.idx.Progress()
	info.Phase = t.idx.Phase().String()
	return info
}

// Catalog is the name → table registry.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table

	// store persists tables when set (NewDurable); nil means the
	// catalog is ephemeral and every durability hook is a no-op.
	store *durable.Store

	// reg hands each table its observability state (SetObservability);
	// nil keeps every observability hook a no-op.
	reg *obs.Registry
}

// SetObservability attaches an observability registry: every table
// loaded (or recovered) afterwards gets a convergence timeline and
// per-table histograms, and its index handle's structural events
// (tail seals, cold-shard claims) are routed into the timeline. Call
// before loading tables.
func (c *Catalog) SetObservability(reg *obs.Registry) { c.reg = reg }

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// reserve claims name for t before its index is built, so two
// concurrent loads of the same name cannot both win. The fail it returns
// releases only this reservation: the name may have been dropped and
// reused by a concurrent loader in the meantime.
func (c *Catalog) reserve(name string, t *Table) (fail func(error) (*Table, error), err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("catalog: table %q %w", name, ErrExists)
	}
	c.tables[name] = t
	return func(cause error) (*Table, error) {
		c.mu.Lock()
		if c.tables[name] == t {
			delete(c.tables, name)
		}
		c.mu.Unlock()
		return nil, cause
	}, nil
}

// Load registers a new table over values and builds its index handle.
// The values slice is retained by the handle and must not be mutated
// afterwards. For a multi-column schema (opts.Columns with two
// or more names) the values are flat row-major tuples, row width
// values each. Loading an existing name is an error (drop first); so
// are an empty name and an empty column.
func (c *Catalog) Load(name string, values []int64, opts Options) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	return c.build("load", name, values, opts, time.Now(), func(t *Table) (err error) {
		if c.store != nil {
			// Establish the on-disk state — base snapshot with the load
			// rows plus manifest, durable before the load is acked — so a
			// created table survives a crash even before its first append.
			// Multi-column tables snapshot their flat row-major tuples; the
			// byte format is the k=1 format, just k values per logical row.
			t.log, err = c.store.Create(name, opts.meta(), t.created.UnixNano(), values)
		}
		return err
	})
}

// build is the one way a table is made, for Load and LoadRecovered: it
// reserves name, builds the index handle over base, attaches
// observability and runs fill, then publishes the table ready. Errors
// name the table and the step (what). A concurrent Drop that removed the
// reservation mid-build is honored: the table is not published, and its
// on-disk state goes down with it (Drop's own store teardown may have
// run before fill wrote it).
func (c *Catalog) build(what, name string, base []int64, opts Options, created time.Time, fill func(*Table) error) (*Table, error) {
	k := opts.RowWidth()
	if len(base) == 0 || len(base)%k != 0 {
		return nil, fmt.Errorf("catalog: %s %q: %d values not a non-empty multiple of row width %d", what, name, len(base), k)
	}
	t := &Table{name: name, opts: opts, created: created, obs: c.reg.NewTable()}
	t.rows.Store(int64(len(base) / k))
	t.status.Store(int32(StatusLoading))

	fail, err := c.reserve(name, t)
	if err != nil {
		return nil, err
	}
	if t.idx, err = plan.New(name, opts.schema(), base, opts.planOptions()); err == nil {
		if t.obs != nil {
			t.idx.SetEventSink(t.obs.Timeline)
		}
		err = fill(t)
	}
	if err != nil {
		if t.Status() == StatusDropped { // the drop's store teardown may be why fill failed
			err = fmt.Errorf("table %w meanwhile: %v", ErrDropped, err)
		}
		return fail(fmt.Errorf("catalog: %s %q: %w", what, name, err))
	}
	if !t.status.CompareAndSwap(int32(StatusLoading), int32(StatusReady)) {
		if c.store != nil {
			c.store.Drop(name)
		}
		return nil, fmt.Errorf("catalog: %s %q: table %w meanwhile", what, name, ErrDropped)
	}
	return t, nil
}

// Get returns the named table if it is present and queryable.
func (c *Catalog) Get(name string) (*Table, bool) {
	c.mu.RLock()
	t, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok || t.Status() != StatusReady {
		return nil, false
	}
	return t, true
}

// Drop removes the named table from the catalog and marks it dropped,
// returning it so the caller can tear down attached resources (the
// server stops the table's scheduler). In-flight queries holding the
// table finish against the still-valid index; new lookups miss.
func (c *Catalog) Drop(name string) (*Table, error) {
	c.mu.Lock()
	t, ok := c.tables[name]
	if ok {
		delete(c.tables, name)
	}
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("catalog: table %q not found", name)
	}
	t.status.Store(int32(StatusDropped))
	if c.store != nil {
		// Remove the on-disk WAL + snapshots so a dropped table never
		// resurrects at recovery and a recreated same-name table starts
		// from only its own data. Runs outside the catalog lock (it
		// deletes files); dropping and recreating the same name
		// concurrently is a client race today just as it was without
		// durability.
		if err := c.store.Drop(name); err != nil {
			return t, fmt.Errorf("catalog: drop %q on-disk state: %w", name, err)
		}
	}
	return t, nil
}

// List returns the catalog's tables sorted by name.
func (c *Catalog) List() []*Table {
	c.mu.RLock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len reports how many tables are registered.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.tables)
}
