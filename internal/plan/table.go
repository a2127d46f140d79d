// Package plan generalizes the serving stack from one-column tables to
// N-column tables with conjunctive predicates. A plan.Table is one
// sharded single-column table per column — the handle progidx.NewHandle
// builds, with the table's own options — kept in structural lockstep so
// their rows align block for block; it answers composite queries
// (`a IN [lo,hi] AND b = v AND c >= w`) through a selectivity-driven
// planner over the columns' block views, and implements progidx.Handle
// so the scheduler, catalog and durability layers drive it exactly like
// the single-column handles. See DESIGN.md section 15.
package plan

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/column"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/query"
)

// colState is one column of a multi-column table: its sharded table,
// which holds the rows, serves single-column conjunctions on this
// column index-accelerated and converges under the heat-split budget,
// plus the planner's accounting.
type colState struct {
	name string
	idx  *progidx.Sharded

	// heat counts predicate touches (driver or residual); refines the
	// δ slices this column has been granted. Their ratio drives the
	// budget split, exactly like shard heat-shares.
	heat    atomic.Uint64
	refines atomic.Uint64

	// tl is the column's own convergence timeline: the per-column
	// analogue of the table timeline, fed by the column handle's
	// structural events and the planner's refine grants.
	tl *obs.Timeline
}

// Table is an N-column table behind the progidx.Handle surface: plain
// requests address the first column (the single-column compatibility
// path), conjunctions go through the planner. One δ of indexing work
// is spent per ExecuteConjBatch/ExecuteBatch call — never one per
// query — and it goes to the column with the largest heat share
// relative to the refinement it has already received.
type Table struct {
	// mu keeps the columns in lockstep: an append, or an idle flush,
	// moves every column under the write lock, and a conjunction reads
	// its columns' views under the read lock, so it always sees the same
	// rows cut into the same blocks on all of them. What changes no block
	// boundary — queries, refine slices, claims — takes only the column
	// handles' own locks.
	mu     sync.RWMutex
	name   string
	cols   []*colState
	byName map[string]int
	pool   *parallel.Pool
	rows   int

	strategy progidx.Strategy

	// sink is the table-level event timeline (SetEventSink); refine
	// grants and claims land there with the column index in the shard
	// field.
	sink atomic.Pointer[obs.Timeline]
}

// New builds a multi-column table named name over flat row-major
// tuples: flat holds len(columns) values per row, row after row, and
// every column becomes a sharded table of its own built with opts — raw
// columns indexing from the first query, compressed ones born cold and
// claimed shard by shard (progidx.Options.ClaimHeat). Column names must
// be unique and non-empty.
func New(name string, columns []string, flat []int64, opts progidx.Options) (*Table, error) {
	k := len(columns)
	if k == 0 {
		return nil, fmt.Errorf("plan: table %q needs at least one column", name)
	}
	if len(flat) == 0 || len(flat)%k != 0 {
		return nil, fmt.Errorf("plan: table %q: %d values do not fill %d-column rows", name, len(flat), k)
	}
	if err := checkDomain(flat); err != nil {
		return nil, fmt.Errorf("plan: table %q: %w", name, err)
	}
	t := &Table{
		name:     name,
		byName:   make(map[string]int, k),
		pool:     parallel.New(opts.Workers),
		rows:     len(flat) / k,
		strategy: opts.Strategy,
	}
	for i, col := range columns {
		if col == "" {
			return nil, fmt.Errorf("plan: table %q: empty column name", name)
		}
		if _, dup := t.byName[col]; dup {
			return nil, fmt.Errorf("plan: table %q: duplicate column %q", name, col)
		}
		t.byName[col] = i
		vals := make([]int64, t.rows)
		for r := 0; r < t.rows; r++ {
			vals[r] = flat[r*k+i]
		}
		idx, err := progidx.NewHandle(vals, opts)
		if err != nil {
			return nil, fmt.Errorf("plan: table %q column %q: %w", name, col, err)
		}
		cs := &colState{name: col, idx: idx, tl: obs.NewTimeline(256)}
		idx.SetEventSink(cs.tl)
		t.cols = append(t.cols, cs)
	}
	return t, nil
}

// checkDomain refuses a batch holding a value outside the kernel-safe
// ±2^62 domain before any column ingests a row of it: the check
// column.New and Handle.Append make, hoisted in front of the columns so
// that a refused batch leaves every one of them untouched.
func checkDomain(flat []int64) error {
	if mn, mx := column.MinMax(flat); mn <= -column.MaxMagnitude || mx >= column.MaxMagnitude {
		return fmt.Errorf("values must lie strictly inside ±2^62 (min=%d max=%d)", mn, mx)
	}
	return nil
}

// Columns returns the column names in schema order.
func (t *Table) Columns() []string {
	out := make([]string, len(t.cols))
	for i, cs := range t.cols {
		out[i] = cs.name
	}
	return out
}

// Width returns the tuple width (column count).
func (t *Table) Width() int { return len(t.cols) }

// Name implements Index.
func (t *Table) Name() string {
	return fmt.Sprintf("multicol(%d×%s)", len(t.cols), t.strategy)
}

// firstConj rewrites a single-column request onto the first column:
// how Execute, and the wire format's single-predicate form, address a
// multi-column table.
func (t *Table) firstConj(req query.Request) query.Conjunction {
	first := t.cols[0].name
	return query.Conjunction{
		Preds:  []query.ColPredicate{{Col: first, Pred: req.Pred}},
		Target: first,
		Aggs:   req.Aggs,
	}
}

// Execute implements Index: the request addresses the first column,
// and — like the single-column handles — the call both answers and
// spends one δ of indexing work.
func (t *Table) Execute(req query.Request) (query.Answer, error) {
	answers, errs := t.ExecuteConjBatch([]query.Conjunction{t.firstConj(req)}, query.BatchOpts{})
	return answers[0], errs[0]
}

// ExecuteConj answers one conjunction and spends one δ, the composite
// analogue of Execute.
func (t *Table) ExecuteConj(c query.Conjunction) (query.Answer, error) {
	answers, errs := t.ExecuteConjBatch([]query.Conjunction{c}, query.BatchOpts{})
	return answers[0], errs[0]
}

// ExplainConj answers one conjunction with the indexing budget clamped
// and returns the planner's choice alongside the answer. forceDriver
// pins the driving column (the benchmark's worst-column baseline);
// empty lets the planner choose.
func (t *Table) ExplainConj(c query.Conjunction, forceDriver string) (query.Answer, Choice, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	forced := -1
	if forceDriver != "" {
		for i, cp := range c.Preds {
			if cp.Col == forceDriver {
				forced = i
			}
		}
		if forced < 0 {
			return query.Answer{}, Choice{}, fmt.Errorf("plan: forced driver %q has no predicate", forceDriver)
		}
	}
	return t.execConj(c, nil, forced)
}

// Converged implements Index: every column's table has converged.
func (t *Table) Converged() bool {
	for _, cs := range t.cols {
		if !cs.idx.Converged() {
			return false
		}
	}
	return true
}

// Progress implements Handle: the mean convergence across columns, so
// the scheduler's checkpoint heuristics and /stats see the table-level
// indexing debt.
func (t *Table) Progress() float64 {
	sum := 0.0
	for _, cs := range t.cols {
		sum += cs.idx.Progress()
	}
	return sum / float64(len(t.cols))
}

// Phase implements Handle: the least-advanced column's phase.
func (t *Table) Phase() (query.Phase, bool) {
	have := false
	min := query.PhaseDone
	for _, cs := range t.cols {
		if p, ok := cs.idx.Phase(); ok {
			have = true
			if p < min {
				min = p
			}
		}
	}
	return min, have
}

// ValueBounds implements Handle for the first column,
// the domain v1 surfaces (Info min/max, loadgen predicates) address.
func (t *Table) ValueBounds() (int64, int64) { return t.cols[0].idx.ValueBounds() }

// PendingRows reports rows appended but not yet sealed into a shard of
// the first column (all columns ingest and seal in lockstep).
func (t *Table) PendingRows() int { return t.cols[0].idx.PendingRows() }

// MaterializeRows implements Handle: the table's rows as
// flat row-major tuples, freshly allocated — the shape checkpoints
// persist and Values exposes.
func (t *Table) MaterializeRows() []int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	k := len(t.cols)
	cols := make([][]int64, k)
	for i, cs := range t.cols {
		cols[i] = cs.idx.MaterializeRows()
	}
	flat := make([]int64, 0, t.rows*k)
	for r := 0; r < t.rows; r++ {
		for c := 0; c < k; c++ {
			flat = append(flat, cols[c][r])
		}
	}
	return flat
}

// Append implements Handle: values are flat row-major tuples, one
// Width() group per row. Every column ingests the row's slice under the
// write lock — and, the columns sharing one seal threshold, seals its
// tail on the same batch as the others — so queries admitted after
// Append returns see the new rows on every column.
func (t *Table) Append(flat []int64) error {
	k := len(t.cols)
	if len(flat)%k != 0 {
		return fmt.Errorf("plan: append of %d values does not fill %d-column rows", len(flat), k)
	}
	if len(flat) == 0 {
		return nil
	}
	if err := checkDomain(flat); err != nil {
		return fmt.Errorf("plan: append to table %q: %w", t.name, err)
	}
	rows := len(flat) / k
	t.mu.Lock()
	defer t.mu.Unlock()
	vals := make([]int64, rows) // the column handles copy what they ingest
	for i, cs := range t.cols {
		for r := 0; r < rows; r++ {
			vals[r] = flat[r*k+i]
		}
		if err := cs.idx.Append(vals); err != nil {
			return fmt.Errorf("plan: append to column %q: %w", cs.name, err)
		}
	}
	t.rows += rows
	return nil
}

// ExecuteBatch implements Handle: first-column requests under one δ.
func (t *Table) ExecuteBatch(reqs []query.Request, opts query.BatchOpts) ([]query.Answer, []error) {
	conjs := make([]query.Conjunction, len(reqs))
	for i, req := range reqs {
		conjs[i] = t.firstConj(req)
	}
	return t.ExecuteConjBatch(conjs, opts)
}

// ExecuteConjBatch answers a batch of conjunctions under one indexing
// budget: every query runs with the per-column indexes clamped, then —
// unless opts.Clamp is set (deadline pressure) — every column claims at
// most one cold shard its single-column queries have heated past the
// threshold, and one δ slice goes to the hottest under-refined column.
// opts.Traces aligns positionally with conjs.
func (t *Table) ExecuteConjBatch(conjs []query.Conjunction, opts query.BatchOpts) ([]query.Answer, []error) {
	answers := make([]query.Answer, len(conjs))
	errs := make([]error, len(conjs))
	t.mu.RLock()
	for i, c := range conjs {
		answers[i], _, errs[i] = t.execConj(c, opts.Trace(i), -1)
	}
	t.mu.RUnlock()
	if !opts.Clamp {
		for i, cs := range t.cols {
			if rows := cs.idx.ClaimHot(); rows > 0 {
				t.sink.Load().Record(obs.EvShardClaim, int32(i), float64(rows), 0)
			}
		}
		if st, _ := t.RefineStep(); len(answers) > 0 {
			// The leader carries the batch's indexing work, like the
			// single-column handles' batch contract.
			answers[0].Stats.Delta += st.Delta
			answers[0].Stats.WorkSeconds += st.WorkSeconds
		}
	}
	return answers, errs
}

// RefineStep implements Handle, and is the δ slice every unclamped batch
// ends with: it goes to the column with the largest heat share relative
// to the refinement it has already received — the cross-column version
// of the shard layer's heat-proportional budget split — so columns the
// workload never touches do no indexing work. Once no column has a
// shard left to refine, the slice flushes the pending tail on every
// column together: the single-column handles' idle flush, taken by the
// table so that the columns seal the same rows. Non-convergent
// strategies (the scan/index baselines, cracking) never receive a slice.
func (t *Table) RefineStep() (query.Stats, bool) {
	if !t.strategy.Convergent() {
		return query.Stats{}, false
	}
	type cand struct {
		col   int
		score float64
	}
	var cands []cand
	for i, cs := range t.cols {
		if !cs.idx.Converged() {
			cands = append(cands, cand{i, float64(cs.heat.Load()+1) / float64(cs.refines.Load()+1)})
		}
	}
	if len(cands) == 0 {
		return query.Stats{}, true
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
	for _, c := range cands {
		// A column whose shards have all converged (only its tail is
		// pending) passes its turn to the next one.
		cs := t.cols[c.col]
		if st, ok := cs.idx.RefineShard(); ok {
			cs.refines.Add(1)
			p := cs.idx.Progress()
			cs.tl.Record(obs.EvProgress, -1, p, 0)
			t.sink.Load().Record(obs.EvProgress, int32(c.col), p, 0)
			return st, t.Converged()
		}
	}
	t.mu.Lock()
	for _, cs := range t.cols {
		cs.idx.FlushTail()
	}
	t.mu.Unlock()
	return query.Stats{}, t.Converged()
}

// SetEventSink implements Handle for the table-level timeline;
// per-column timelines are built in and exposed through ColumnStates.
func (t *Table) SetEventSink(tl *obs.Timeline) { t.sink.Store(tl) }

// ColumnState is the per-column half of the debug surface: index
// convergence, heat/refine accounting, block shape, and the column's
// own convergence timeline.
type ColumnState struct {
	Name          string          `json:"name"`
	Rows          int             `json:"rows"`
	MinValue      int64           `json:"min_value"`
	MaxValue      int64           `json:"max_value"`
	Heat          uint64          `json:"heat"`
	Refines       uint64          `json:"refine_slices"`
	Progress      float64         `json:"convergence"`
	Converged     bool            `json:"converged"`
	Phase         string          `json:"phase,omitempty"`
	Blocks        int             `json:"blocks"`
	EncodedBlocks int             `json:"encoded_blocks,omitempty"`
	ClaimError    string          `json:"claim_error,omitempty"`
	Events        []obs.EventJSON `json:"events,omitempty"`
}

// ColumnStates snapshots every column for /tables/{name}/debug.
func (t *Table) ColumnStates() []ColumnState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]ColumnState, len(t.cols))
	for i, cs := range t.cols {
		bv := cs.idx.BlockView()
		st := ColumnState{
			Name:      cs.name,
			Rows:      t.rows,
			Heat:      cs.heat.Load(),
			Refines:   cs.refines.Load(),
			Progress:  cs.idx.Progress(),
			Converged: cs.idx.Converged(),
			Blocks:    len(bv),
		}
		for b := range bv {
			if bv[b].Packed() {
				st.EncodedBlocks++
			}
		}
		st.MinValue, st.MaxValue = cs.idx.ValueBounds()
		if p, ok := cs.idx.Phase(); ok {
			st.Phase = p.String()
		}
		for _, si := range cs.idx.ShardStats() {
			if si.ClaimError != "" {
				st.ClaimError = si.ClaimError
				break
			}
		}
		for _, e := range cs.tl.Snapshot() {
			st.Events = append(st.Events, e.JSON())
		}
		out[i] = st
	}
	return out
}

var _ progidx.Handle = (*Table)(nil)
