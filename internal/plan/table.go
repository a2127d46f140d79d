// Package plan is the served table, for every column count: a
// plan.Table is one sharded column per column — what NewColumn builds,
// with the table's own options — kept in structural lockstep so
// their rows align block for block. It answers composite queries
// (`a IN [lo,hi] AND b = v AND c >= w`) through a selectivity-driven
// planner over the columns' block views and single-column ones on the
// column's own shards, and it is the one type the catalog, scheduler and
// durability layers drive; a single-column table is the one-column
// Table, whose every query takes the direct route. See DESIGN.md
// section 9.
package plan

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/column"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/shard"
)

// colState is one column of a table: its sharded column, which holds the
// rows, serves single-column conjunctions on this column
// index-accelerated and converges under the heat-split budget, plus the
// planner's accounting.
type colState struct {
	name string
	idx  *shard.Sharded

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

// Table is an N-column table, N >= 1, and the one implementation of
// catalog.Handle: plain requests address the first column, conjunctions
// go through the planner. One δ of indexing work is spent per
// ExecuteConjBatch call — never one per query: the batch's leader
// carries it inside its own pass when it reads one column through that
// column's shards, and otherwise it goes, after the batch, to the column
// with the largest heat share relative to the refinement it has already
// received.
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

	// sink is the table-level event timeline (SetEventSink); refine
	// grants and claims land there with the column index in the shard
	// field.
	sink atomic.Pointer[obs.Timeline]
}

// New builds a table named name over flat row-major tuples: flat holds
// len(columns) values per row, row after row, and every column becomes a
// sharded column of its own built with opts — raw columns indexing from
// the first query, compressed ones born cold and claimed shard by shard
// (shard.ClaimHeat). A one-column table adopts flat as its
// column, which must not be mutated afterwards. Column names must be
// unique and non-empty; a value outside the kernel-safe domain is
// refused by the column it falls in.
func New(name string, columns []string, flat []int64, opts Options) (*Table, error) {
	k := len(columns)
	if k == 0 {
		return nil, fmt.Errorf("plan: table %q needs at least one column", name)
	}
	if len(flat) == 0 || len(flat)%k != 0 {
		return nil, fmt.Errorf("plan: table %q: %d values do not fill %d-column rows", name, len(flat), k)
	}
	t := &Table{
		name:   name,
		byName: make(map[string]int, k),
		pool:   parallel.New(opts.Workers),
		rows:   len(flat) / k,
	}
	for i, col := range columns {
		if col == "" {
			return nil, fmt.Errorf("plan: table %q: empty column name", name)
		}
		if _, dup := t.byName[col]; dup {
			return nil, fmt.Errorf("plan: table %q: duplicate column %q", name, col)
		}
		t.byName[col] = i
		vals := flat
		if k > 1 {
			vals = make([]int64, t.rows)
			for r := range vals {
				vals[r] = flat[r*k+i]
			}
		}
		base, err := column.New(vals)
		if err != nil {
			return nil, fmt.Errorf("plan: table %q column %q: %w", name, col, err)
		}
		idx, err := NewColumn(base, opts)
		if err != nil {
			return nil, fmt.Errorf("plan: table %q column %q: %w", name, col, err)
		}
		if k > 1 {
			idx.KeepRowOrder() // the fused scan ANDs the columns' blocks row by row
		}
		cs := &colState{name: col, idx: idx, tl: obs.NewTimeline(256)}
		idx.SetEventSink(cs.tl)
		t.cols = append(t.cols, cs)
	}
	return t, nil
}

// Columns returns the column names in schema order.
func (t *Table) Columns() []string {
	out := make([]string, len(t.cols))
	for i, cs := range t.cols {
		out[i] = cs.name
	}
	return out
}

// Name implements Index: a one-column table goes by its column's name
// (strategy and loaded shard count, e.g. "PQ/S4"), a wider one by the
// column count and its first column's name (e.g. "multicol(3×PQ/S1)").
func (t *Table) Name() string {
	if len(t.cols) == 1 {
		return t.cols[0].idx.Name()
	}
	return fmt.Sprintf("multicol(%d×%s)", len(t.cols), t.cols[0].idx.Name())
}

// Shards and ShardStats report the first column's shards — on a
// one-column table, the table's.
func (t *Table) Shards() int { return t.cols[0].idx.Shards() }

// ShardStats: see Shards.
func (t *Table) ShardStats() []shard.Info { return t.cols[0].idx.ShardStats() }

// Execute implements Index: the request is the one-predicate conjunction
// on the first column, and the call both answers and spends one δ of
// indexing work.
func (t *Table) Execute(req query.Request) (query.Answer, error) {
	return t.ExecuteConj(query.Conjunction{Preds: []query.ColPredicate{{Pred: req.Pred}}, Aggs: req.Aggs})
}

// ExecuteConj answers one conjunction and spends one δ: a batch of one.
func (t *Table) ExecuteConj(c query.Conjunction) (query.Answer, error) {
	var ans [1]query.Answer
	var errs [1]error
	t.executeBatch([]query.Conjunction{c}, query.BatchOpts{}, ans[:], errs[:])
	return ans[0], errs[0]
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
	var ch Choice
	ans, err := t.execConj(c, nil, forced, false, &ch)
	return ans, ch, err
}

// ExecuteQuiescent answers c if the table is quiescent — no column has
// index work left to hand out (shard.Sharded.Quiescent) — and otherwise
// reports false having answered nothing. Check and answer share one read
// lock, so no append lands between them. The answer runs with every
// index clamped, as a batch follower's does; on a quiescent table that
// is the answer a batch of one would give, and a batch would have had
// nothing to claim, spend or flush after it.
func (t *Table) ExecuteQuiescent(c query.Conjunction, tr *obs.Trace) (query.Answer, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, cs := range t.cols {
		if !cs.idx.Quiescent() {
			return query.Answer{}, false, nil
		}
	}
	var ch Choice
	ans, err := t.execConj(c, tr, -1, false, &ch)
	return ans, true, err
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
// indexing debt. Like each column's (shard.Sharded.Progress), it is
// monotone only between appends, claims and merging seals.
func (t *Table) Progress() float64 {
	sum := 0.0
	for _, cs := range t.cols {
		sum += cs.idx.Progress()
	}
	return sum / float64(len(t.cols))
}

// Phase is the least-advanced column's phase.
func (t *Table) Phase() query.Phase {
	min := query.PhaseDone
	for _, cs := range t.cols {
		if p := cs.idx.Phase(); p < min {
			min = p
		}
	}
	return min
}

// ValueBounds is the zone of the first column, the one plain requests
// address.
func (t *Table) ValueBounds() (int64, int64) { return t.cols[0].idx.ValueBounds() }

// PendingRows reports rows appended but not yet sealed into a shard of
// the first column (all columns ingest and seal in lockstep).
func (t *Table) PendingRows() int { return t.cols[0].idx.PendingRows() }

// MaterializeRows returns the table's rows as flat row-major tuples,
// freshly allocated: the Snapshot, decoded.
func (t *Table) MaterializeRows() []int64 {
	sn := t.Snapshot()
	flat := make([]int64, 0, sn.Len())
	if err := sn.Each(func(run []int64) error { flat = append(flat, run...); return nil }); err != nil {
		panic(err) // the table's lock keeps its columns in lockstep
	}
	return flat
}

// Snapshot is a table's rows as flat row-major tuples, taken as every
// column's blocks (shard.Sharded.Snapshot) under the table's read lock, so
// that the columns are in lockstep: block b of every column holds the same
// rows. Later appends, seals and settles leave it as it is. A checkpoint's
// writer reads it block by block and never holds a copy of the table.
type Snapshot struct {
	rows int
	cols [][]shard.Block
}

// Snapshot takes the table's Snapshot.
func (t *Table) Snapshot() Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sn := Snapshot{rows: t.rows, cols: make([][]shard.Block, len(t.cols))}
	for i, cs := range t.cols {
		sn.cols[i], _ = cs.idx.Snapshot()
	}
	return sn
}

// Len returns the snapshot's value count: rows times columns.
func (sn Snapshot) Len() int { return sn.rows * len(sn.cols) }

// Each hands emit the tuples a block at a time: block b of every column
// interleaved into one buffer of at most k·BlockRows values, which the
// next block reuses.
func (sn Snapshot) Each(emit func(run []int64) error) error {
	k := len(sn.cols)
	var buf, col []int64
	for b, lead := range sn.cols[0] {
		n := lead.Len()
		buf = slices.Grow(buf[:0], k*n)[:k*n]
		for c, blocks := range sn.cols {
			if len(blocks) != len(sn.cols[0]) || blocks[b].Len() != n {
				return fmt.Errorf("plan: snapshot: column %d is out of lockstep at block %d", c, b)
			}
			col = blocks[b].AppendTo(col[:0])
			for r, v := range col {
				buf[r*k+c] = v
			}
		}
		if err := emit(buf); err != nil {
			return err
		}
	}
	return nil
}

// CheckAppend reports whether Append would refuse flat: a batch that is
// not whole rows, or that holds a value outside ±2^62. Append checks the
// same first, so a batch CheckAppend passes is ingested whole, on every
// column.
func (t *Table) CheckAppend(flat []int64) error {
	if k := len(t.cols); len(flat)%k != 0 {
		return fmt.Errorf("plan: append of %d values does not fill %d-column rows", len(flat), k)
	}
	if len(flat) == 0 {
		return nil
	}
	if mn, mx := column.MinMax(flat); mn <= -column.MaxMagnitude || mx >= column.MaxMagnitude {
		return fmt.Errorf("plan: append to table %q: values must lie strictly inside ±2^62 (min=%d max=%d)", t.name, mn, mx)
	}
	return nil
}

// Append implements Handle: values are flat row-major tuples, one
// Width() group per row. Every column ingests the row's slice under the
// write lock — and, the columns sharing one seal threshold, seals its
// tail on the same batch as the others — so queries admitted after
// Append returns see the new rows on every column.
func (t *Table) Append(flat []int64) error {
	if err := t.CheckAppend(flat); err != nil || len(flat) == 0 {
		return err
	}
	k := len(t.cols)
	rows := len(flat) / k
	vals := flat // the columns copy what they ingest
	if k > 1 {
		vals = make([]int64, rows)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, cs := range t.cols {
		if k > 1 {
			for r := range vals {
				vals[r] = flat[r*k+i]
			}
		}
		if err := cs.idx.Append(vals); err != nil {
			return fmt.Errorf("plan: append to column %q: %w", cs.name, err)
		}
	}
	t.rows += rows
	return nil
}

// ExecuteConjBatch answers a batch of conjunctions under one indexing
// budget, the one batch entry point. The leader, conjs[0], carries it
// when it takes the direct route: it runs unclamped on its column — the
// claim probe, the heat-weighted shard split and the δ, all inside the
// pass that answers it, which is the paper's query — and every other
// query runs with the per-column indexes clamped. Any other batch — led
// by a fused scan, or by a direct query whose column has converged —
// ends with one RefineStep instead. Either way every column but the one
// the leader probed claims at most one cold shard its single-column
// queries have heated past the threshold. opts.Clamp (deadline pressure)
// clamps the leader too, and nothing is claimed or refined. opts.Traces
// aligns positionally with conjs.
func (t *Table) ExecuteConjBatch(conjs []query.Conjunction, opts query.BatchOpts) ([]query.Answer, []error) {
	answers := make([]query.Answer, len(conjs))
	errs := make([]error, len(conjs))
	t.executeBatch(conjs, opts, answers, errs)
	return answers, errs
}

// executeBatch is ExecuteConjBatch into the caller's result slices.
func (t *Table) executeBatch(conjs []query.Conjunction, opts query.BatchOpts, answers []query.Answer, errs []error) {
	led := -1 // the column the leader advanced in its own pass
	t.mu.RLock()
	for i, c := range conjs {
		var ch Choice
		lead := i == 0 && !opts.Clamp
		answers[i], errs[i] = t.execConj(c, opts.Trace(i), -1, lead, &ch)
		if lead && ch.Direct && errs[0] == nil {
			led = ch.col
		}
	}
	t.mu.RUnlock()
	if opts.Clamp || len(conjs) == 0 {
		return
	}
	for i, cs := range t.cols {
		if i == led {
			continue // the leader's own probe claimed for it
		}
		if rows := cs.idx.ClaimHot(); rows > 0 {
			t.sink.Load().Record(obs.EvShardClaim, int32(i), float64(rows), 0)
		}
	}
	if led >= 0 && t.cols[led].idx.Refinable() {
		t.granted(led)
		return
	}
	// Nobody carried the δ, or the leader's column had no shard left to
	// spend it on — at most a pending tail, which only a flush absorbs:
	// the slice goes where RefineStep sends it, on the leader's account.
	st, _ := t.RefineStep()
	answers[0].Stats.Delta += st.Delta
	answers[0].Stats.WorkSeconds += st.WorkSeconds
}

// granted accounts one δ slice spent on column i: a batch leader's, or
// RefineStep's.
func (t *Table) granted(i int) {
	cs := t.cols[i]
	cs.refines.Add(1)
	p := cs.idx.Progress()
	cs.tl.Record(obs.EvProgress, -1, p, 0)
	t.sink.Load().Record(obs.EvProgress, int32(i), p, 0)
}

// RefineStep implements Handle, and is the δ slice of idle time and of
// every unclamped batch whose leader did not carry it: it goes to the
// column with the largest heat share relative to the refinement it has
// already received — the cross-column version of the shard layer's
// heat-proportional budget split — so columns the workload never touches
// do no indexing work. Once no column has a shard left to refine, the
// slice flushes the pending tail on every column together, under the
// table's lock, so that the columns seal the same rows.
func (t *Table) RefineStep() (query.Stats, bool) {
	type cand struct {
		col   int
		score float64
	}
	cands := make([]cand, 0, 8) // on the stack for the usual few columns
	for i, cs := range t.cols {
		if !cs.idx.Converged() {
			cands = append(cands, cand{i, float64(cs.heat.Load()+1) / float64(cs.refines.Load()+1)})
		}
	}
	if len(cands) == 0 {
		return query.Stats{}, true
	}
	slices.SortStableFunc(cands, func(a, b cand) int { return cmp.Compare(b.score, a.score) })
	for _, c := range cands {
		// A column whose shards have all converged (only its tail is
		// pending) passes its turn to the next one.
		if st, ok := t.cols[c.col].idx.RefineShard(); ok {
			t.granted(c.col)
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

// SetEventSink routes the table's events into the table-level timeline;
// per-column timelines are built in and exposed through ColumnStates. A
// one-column table's timeline is its column's: the seals, claims and
// settles land there shard by shard, and the planner adds nothing.
func (t *Table) SetEventSink(tl *obs.Timeline) {
	if len(t.cols) == 1 {
		t.cols[0].idx.SetEventSink(tl)
		return
	}
	t.sink.Store(tl)
}

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
			Phase:     cs.idx.Phase().String(),
			Blocks:    len(bv),
		}
		for b := range bv {
			if bv[b].Packed() {
				st.EncodedBlocks++
			}
		}
		st.MinValue, st.MaxValue = cs.idx.ValueBounds()
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
