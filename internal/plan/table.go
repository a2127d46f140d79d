package plan

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/column"
	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/shard"
)

// colState is one column of a multi-column table: its row-aligned
// store (zone maps + optionally compressed blocks) and its own
// progressive index, which serves single-column conjunctions on this
// column index-accelerated and converges under the heat-split budget.
type colState struct {
	name  string
	store *colStore

	// idx is the column's progressive index, built over a copy of the
	// rows. A column stored compressed is born cold — idx nil, the
	// packed blocks its only copy, every query a masked scan over them —
	// and is claimed (idx built from the decoded store) once directHeat
	// reaches the table's claim threshold. Cold is a terminal serving
	// state like a cold shard's: converged, progress 1, PhaseDone.
	idx atomic.Pointer[progidx.Sharded]

	// heat counts predicate touches (driver or residual); refines the
	// δ slices this column has been granted. Their ratio drives the
	// budget split, exactly like shard heat-shares. directHeat counts
	// only the direct-route queries answered cold — the ones an index
	// would have accelerated.
	heat       atomic.Uint64
	refines    atomic.Uint64
	directHeat atomic.Uint64

	// claimErr is why the column's one claim failed, nil otherwise. A
	// failed claim is not retried: the column stays cold and exact, and
	// the error shows in ColumnStates.
	claimErr atomic.Pointer[error]

	// tl is the column's own convergence timeline: the per-column
	// analogue of the table timeline, fed by the column handle's
	// structural events and the planner's refine grants.
	tl *obs.Timeline
}

// index returns the column's progressive index, nil while it is cold.
func (cs *colState) index() *progidx.Sharded { return cs.idx.Load() }

func (cs *colState) converged() bool {
	idx := cs.index()
	return idx == nil || idx.Converged()
}

func (cs *colState) progress() float64 {
	if idx := cs.index(); idx != nil {
		return idx.Progress()
	}
	return 1
}

func (cs *colState) phase() (query.Phase, bool) {
	if idx := cs.index(); idx != nil {
		return idx.Phase()
	}
	return query.PhaseDone, true
}

// Table is an N-column table behind the progidx.Handle surface: plain
// requests address the first column (the single-column compatibility
// path), conjunctions go through the planner. One δ of indexing work
// is spent per ExecuteConjBatch/ExecuteBatch call — never one per
// query — and it goes to the column with the largest heat share
// relative to the refinement it has already received.
type Table struct {
	// mu orders appends (which grow every column store) against the
	// scans reading those stores; the per-column index handles carry
	// their own locks.
	mu     sync.RWMutex
	name   string
	cols   []*colState
	byName map[string]int
	// idxOpts builds every column index: the table's options with the
	// encoding forced raw, because the store's blocks already are the
	// (possibly compressed) table and an index sorts a raw copy.
	idxOpts progidx.Options
	pool    *parallel.Pool
	rows    int

	// convergent mirrors the strategy: non-convergent strategies (the
	// scan/index baselines, cracking) never receive refine slices.
	convergent bool

	// claimHeat is the directHeat at which a cold column is claimed
	// (shard.ResolveClaimHeat of Options.ClaimHeat); 0 = never.
	claimHeat uint64

	// sink is the table-level event timeline (SetEventSink); refine
	// grants land there with the column index in the shard field.
	sink atomic.Pointer[obs.Timeline]
}

// New builds a multi-column table named name over flat row-major
// tuples: flat holds len(columns) values per row, row after row, and
// every column gets its own store. Under a raw encoding every column
// also gets its progressive index built with opts; under a compressed
// one the columns are born cold (see colState.idx). Column names must
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
		name:       name,
		byName:     make(map[string]int, k),
		idxOpts:    opts,
		pool:       parallel.New(opts.Workers),
		rows:       len(flat) / k,
		convergent: opts.Strategy.Convergent(),
		claimHeat:  shard.ResolveClaimHeat(opts.ClaimHeat),
	}
	t.idxOpts.Encoding = progidx.EncodingRaw
	if opts.Encoding.Compressed() {
		// A cold table packs no block until one fills and builds no index
		// until a claim, both under the write lock with rows already
		// acknowledged. Prove on one row that the options do both, so a
		// bad encoding or strategy is refused here, as a raw table's is.
		if _, err := encode.New([]int64{0}, 0, 0, opts.Encoding); err != nil {
			return nil, fmt.Errorf("plan: table %q: %w", name, err)
		}
		if _, err := progidx.NewHandle([]int64{0}, t.idxOpts); err != nil {
			return nil, fmt.Errorf("plan: table %q: %w", name, err)
		}
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
		cs := &colState{name: col, store: newColStore(col, opts.Encoding), tl: obs.NewTimeline(256)}
		if err := cs.store.append(vals); err != nil {
			return nil, err
		}
		if !opts.Encoding.Compressed() {
			if err := t.buildIndex(cs, vals); err != nil {
				return nil, err
			}
		}
		t.cols = append(t.cols, cs)
	}
	return t, nil
}

// checkDomain refuses a batch holding a value outside the kernel-safe
// ±2^62 domain before any column ingests a row of it: the check
// column.New and Handle.Append make, hoisted in front of the stores so
// that cold columns (no handle to make it) get it too and a refused
// batch leaves every column untouched.
func checkDomain(flat []int64) error {
	if mn, mx := column.MinMax(flat); mn <= -column.MaxMagnitude || mx >= column.MaxMagnitude {
		return fmt.Errorf("values must lie strictly inside ±2^62 (min=%d max=%d)", mn, mx)
	}
	return nil
}

// buildIndex gives cs its progressive index over vals, which the index
// retains.
func (t *Table) buildIndex(cs *colState, vals []int64) error {
	idx, err := progidx.NewHandle(vals, t.idxOpts)
	if err != nil {
		return fmt.Errorf("plan: table %q column %q: %w", t.name, cs.name, err)
	}
	idx.SetEventSink(cs.tl)
	cs.idx.Store(idx)
	return nil
}

// claimHot builds the index of every cold column whose direct-route
// heat has reached the claim threshold: the shard layer's cold → claim
// contract, per column. It runs between batches.
func (t *Table) claimHot() {
	if t.claimHeat == 0 {
		return
	}
	for i, cs := range t.cols {
		if cs.index() == nil && cs.claimErr.Load() == nil && cs.directHeat.Load() >= t.claimHeat {
			t.claim(i, cs)
		}
	}
}

// claim decodes cs's store and builds its index under the write lock,
// so scans and appends never see a half-built column. New has proved
// the options and every ingest path the domain, so the build is not
// expected to fail; if it does, the column stays cold and exact for
// good and keeps the error, rather than decoding the whole column
// under the write lock again on every batch.
func (t *Table) claim(i int, cs *colState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cs.index() != nil || cs.claimErr.Load() != nil {
		return // lost the race to another batch's claim
	}
	if err := t.buildIndex(cs, cs.store.materialize(make([]int64, 0, t.rows))); err != nil {
		cs.claimErr.Store(&err)
		return
	}
	cs.tl.Record(obs.EvShardClaim, -1, float64(t.rows), 0)
	t.sink.Load().Record(obs.EvShardClaim, int32(i), float64(t.rows), 0)
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
	return fmt.Sprintf("multicol(%d×%s)", len(t.cols), t.idxOpts.Strategy)
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

// Converged implements Index: every column's index has converged.
func (t *Table) Converged() bool {
	for _, cs := range t.cols {
		if !cs.converged() {
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
		sum += cs.progress()
	}
	return sum / float64(len(t.cols))
}

// Phase implements Handle: the least-advanced column's phase.
func (t *Table) Phase() (query.Phase, bool) {
	have := false
	min := query.PhaseDone
	for _, cs := range t.cols {
		if p, ok := cs.phase(); ok {
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
func (t *Table) ValueBounds() (int64, int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cols[0].store.mn, t.cols[0].store.mx
}

// PendingRows reports rows appended but not yet absorbed by the first
// column's index (all columns ingest in lockstep). A cold column has no
// index to lag behind: its store holds every row.
func (t *Table) PendingRows() int {
	if idx := t.cols[0].index(); idx != nil {
		return idx.PendingRows()
	}
	return 0
}

// MaterializeRows implements Handle: the table's rows as
// flat row-major tuples, freshly allocated — the shape checkpoints
// persist and Values exposes.
func (t *Table) MaterializeRows() []int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	k := len(t.cols)
	cols := make([][]int64, k)
	for i, cs := range t.cols {
		cols[i] = cs.store.materialize(make([]int64, 0, t.rows))
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
// Width() group per row. Every column's store and index ingest the
// row's slice in lockstep, so queries admitted after Append returns
// see the new rows on every column.
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
	for i, cs := range t.cols {
		vals := make([]int64, rows)
		for r := 0; r < rows; r++ {
			vals[r] = flat[r*k+i]
		}
		if err := cs.store.append(vals); err != nil {
			return err
		}
		if idx := cs.index(); idx != nil {
			if err := idx.Append(vals); err != nil {
				return fmt.Errorf("plan: append to column %q: %w", cs.name, err)
			}
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
// unless opts.Clamp is set (deadline pressure) — one δ slice goes to
// the hottest under-refined column. opts.Traces aligns positionally
// with conjs.
func (t *Table) ExecuteConjBatch(conjs []query.Conjunction, opts query.BatchOpts) ([]query.Answer, []error) {
	answers := make([]query.Answer, len(conjs))
	errs := make([]error, len(conjs))
	t.mu.RLock()
	for i, c := range conjs {
		answers[i], _, errs[i] = t.execConj(c, opts.Trace(i), -1)
	}
	t.mu.RUnlock()
	if !opts.Clamp {
		t.claimHot()
		if st, _ := t.refineOnce(); len(answers) > 0 {
			// The leader carries the batch's indexing work, like the
			// single-column handles' batch contract.
			answers[0].Stats.Delta += st.Delta
			answers[0].Stats.WorkSeconds += st.WorkSeconds
		}
	}
	return answers, errs
}

// RefineStep implements Handle: one idle-time δ slice to the hottest
// under-refined column.
func (t *Table) RefineStep() (query.Stats, bool) {
	return t.refineOnce()
}

// refineOnce grants one δ slice to the column with the largest heat
// share relative to the refinement it has already received — the
// cross-column version of the shard layer's heat-proportional budget
// split. Columns the workload never touches do no indexing work.
func (t *Table) refineOnce() (query.Stats, bool) {
	if !t.convergent {
		return query.Stats{}, false
	}
	var best *colState
	bestIdx := -1
	bestScore := -1.0
	for i, cs := range t.cols {
		if cs.converged() {
			continue
		}
		score := float64(cs.heat.Load()+1) / float64(cs.refines.Load()+1)
		if score > bestScore {
			best, bestIdx, bestScore = cs, i, score
		}
	}
	if best == nil {
		return query.Stats{}, true
	}
	idx := best.index() // not cold: cold columns report converged
	st, _ := idx.RefineStep()
	best.refines.Add(1)
	p := idx.Progress()
	best.tl.Record(obs.EvProgress, -1, p, 0)
	t.sink.Load().Record(obs.EvProgress, int32(bestIdx), p, 0)
	return st, t.Converged()
}

// SetEventSink implements Handle for the table-level timeline;
// per-column timelines are built in and exposed through ColumnStates.
func (t *Table) SetEventSink(tl *obs.Timeline) { t.sink.Store(tl) }

// ColumnState is the per-column half of the debug surface: index
// convergence, heat/refine accounting, store shape, and the column's
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
		st := ColumnState{
			Name:          cs.name,
			Rows:          cs.store.n,
			MinValue:      cs.store.mn,
			MaxValue:      cs.store.mx,
			Heat:          cs.heat.Load(),
			Refines:       cs.refines.Load(),
			Progress:      cs.progress(),
			Converged:     cs.converged(),
			Blocks:        cs.store.blocks(),
			EncodedBlocks: cs.store.encodedBlocks(),
		}
		if p, ok := cs.phase(); ok {
			st.Phase = p.String()
		}
		if errp := cs.claimErr.Load(); errp != nil {
			st.ClaimError = (*errp).Error()
		}
		for _, e := range cs.tl.Snapshot() {
			st.Events = append(st.Events, e.JSON())
		}
		out[i] = st
	}
	return out
}

var _ progidx.Handle = (*Table)(nil)
