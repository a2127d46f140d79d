package catalog

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/durable"
	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
)

var modelSeeds = flag.Int("model.seeds", 0, "run TestServedModel over seeds 0..n-1 (216 is every axis combination) instead of the tier-1 set")

// modelTier1 is the seed set a plain go test runs: between them every
// value of every axis, and every structural event the model must see.
var modelTier1 = []int64{0, 4, 15, 23, 59, 73, 87, 94, 101, 178, 197, 214}

const (
	modelName   = "m"
	modelLoaded = 4096 // rows a load builds the table over
	modelSteps  = 48   // random steps after the load
)

// axes is one combination of the options a seed loads its table with.
type axes struct {
	strategy plan.Strategy
	shards   int
	enc      encode.Mode
	columns  []string
	workers  int
}

// axesOf maps seeds 0..215 one to one onto the axis product: strategy
// and shards by seed mod 8, encoding, schema and workers by seed mod 27.
func axesOf(seed int64) axes {
	a, b := int(seed%8), int(seed%27)
	schemas := [][]string{nil, {"a"}, {"a", "b", "c"}}
	return axes{
		strategy: []plan.Strategy{plan.StrategyQuicksort, plan.StrategyRadixMSD, plan.StrategyBucketsort, plan.StrategyRadixLSD}[a%4],
		shards:   []int{1, 4}[a/4],
		enc:      []encode.Mode{encode.ModeRaw, encode.ModeFORBP, encode.ModeDict}[b%3],
		columns:  schemas[b/3%3],
		workers:  []int{1, 4, 8}[b/9],
	}
}

func (ax axes) String() string {
	return fmt.Sprintf("strategy=%v shards=%d encoding=%v columns=%q workers=%d", ax.strategy, ax.shards, ax.enc, ax.columns, ax.workers)
}

func (ax axes) options() Options {
	return Options{Strategy: ax.strategy, Delta: 0.25, Shards: ax.shards, Encoding: ax.enc, Workers: ax.workers, Columns: ax.columns}
}

type stepKind int

const (
	stepLoad stepKind = iota
	stepQuery
	stepConj
	stepBatch
	stepQuiescent
	stepAppend
	stepIdle
	stepCheckpoint
	stepKill
	stepTear
	stepDrop
)

var stepNames = []string{"load", "query", "conj", "batch", "quiescent", "append", "idle", "checkpoint", "kill", "tear", "drop"}

// stepWeights draws the random steps (load only ever comes first).
var stepWeights = []int{0, 5, 4, 3, 2, 7, 4, 2, 1, 1, 1}

// step is one model step: its kind and the seed of its own draws, so a
// step means the same whatever steps a shrink removed around it.
type step struct {
	kind stepKind
	seed int64
}

// modelEvents counts, over a set of runs, the structural events the
// model exists to cross: a run set that saw none of one is vacuous.
type modelEvents struct{ merges, claims, settles, tailRecoveries, tears int }

func (e *modelEvents) add(o modelEvents) {
	e.merges, e.claims, e.settles = e.merges+o.merges, e.claims+o.claims, e.settles+o.settles
	e.tailRecoveries, e.tears = e.tailRecoveries+o.tailRecoveries, e.tears+o.tears
}

// model is the served table's reference: the rows it must hold, column
// by column, in the order the table reads them back, and the counters
// and floors recovery must restore.
type model struct {
	ax    axes
	opts  Options
	dir   string
	store *durable.Store
	cat   *Catalog
	tbl   *Table

	cols       [][]int64 // the logical rows, one slice per column
	base       int       // rows the table object was built over (loaded or recovered)
	snapRows   int       // rows of the newest durable snapshot
	appends    uint64
	appendRows uint64
	floor      float64 // the newest checkpoint's progress

	seen     []uint64 // the next event seq to count, per timeline
	flushDue bool     // the running step's first batch must flush the tail
	ev       modelEvents
	stepEv   modelEvents // events of the running step
	progress float64
	conv     bool
	log      []string
}

func (m *model) names() []string { return m.opts.schema() }
func (m *model) k() int          { return len(m.names()) }
func (m *model) rows() int       { return len(m.cols[0]) }

func (m *model) logf(format string, args ...any) { m.log = append(m.log, fmt.Sprintf(format, args...)) }

// value draws column c's value for row: the first column drifts upward
// with the row number, so shards carry distinct zones and queries prune;
// b is uniform and c low-cardinality.
func value(rng *rand.Rand, c, row int) int64 {
	switch c {
	case 0:
		return int64(row/8) + rng.Int63n(300)
	case 1:
		return rng.Int63n(5000)
	}
	return rng.Int63n(64) * 100
}

// tuples draws n rows from row on, flat row-major; inside, the first
// column's values fall inside the loaded domain instead.
func (m *model) tuples(rng *rand.Rand, row, n int, inside bool) []int64 {
	k := m.k()
	flat := make([]int64, n*k)
	for r := 0; r < n; r++ {
		for c := 0; c < k; c++ {
			flat[r*k+c] = value(rng, c, row+r)
			if c == 0 && inside {
				flat[r*k] = rng.Int63n(modelLoaded/8 + 300)
			}
		}
	}
	return flat
}

func (m *model) openCatalog() error {
	s, err := durable.Open(m.dir, durable.SyncBatch)
	if err != nil {
		return err
	}
	m.store, m.cat = s, NewDurable(s)
	m.cat.SetObservability(obs.NewRegistry(obs.Config{EventRingCap: 1 << 14, SlowQuery: -1}))
	return nil
}

// adopt makes t the model's table, built over base rows.
func (m *model) adopt(t *Table, base int) {
	m.tbl, m.base, m.seen = t, base, nil
	m.progress, m.conv = t.Handle().Progress(), t.Handle().Converged()
}

func (m *model) load(rng *rand.Rand) error {
	flat := m.tuples(rng, 0, modelLoaded, false)
	t, err := m.cat.Load(modelName, slices.Clone(flat), m.opts)
	if err != nil {
		return err
	}
	m.cols = oracle.Columns(flat, m.k())
	m.snapRows, m.appends, m.appendRows, m.floor = modelLoaded, 0, 0, 0
	m.adopt(t, modelLoaded)
	// A raw table has indexed nothing yet; a compressed one is all cold
	// shards, terminal until a claim.
	if m.ax.enc.Compressed() != m.conv || m.ax.enc.Compressed() != (m.progress == 1) || !m.conv && m.progress != 0 {
		return fmt.Errorf("a fresh %v table: converged=%v, progress %g", m.ax.enc, m.conv, m.progress)
	}
	return nil
}

// sealRows is the seal threshold plan.Layout gives a table of base rows.
func (m *model) sealRows() int {
	if m.ax.shards > 1 {
		return m.base / m.ax.shards
	}
	return max(m.base/8, 1024)
}

// pred draws a predicate on a column with values in [lo, hi]: ranges,
// points, open ends, zone misses, inverted and unbounded ranges.
func pred(rng *rand.Rand, vals []int64) query.Predicate {
	lo, hi := column.MinMax(vals)
	x := lo + rng.Int63n(hi-lo+1)
	switch rng.Intn(9) {
	case 0:
		return query.Point(vals[rng.Intn(len(vals))])
	case 1:
		return query.AtLeast(x)
	case 2:
		return query.AtMost(x)
	case 3:
		return query.Range(hi+1+rng.Int63n(100), hi+200) // zone miss above
	case 4:
		return query.Range(x, x-1-rng.Int63n(50)) // inverted: empty
	case 5:
		return query.Range(math.MinInt64, math.MaxInt64)
	}
	return query.Range(x, x+rng.Int63n((hi-lo)/4+1))
}

var aggMasks = []column.Aggregates{0, column.AggSum, column.AggCount, column.AggMin, column.AggMax, column.AggAvg,
	column.AggMin | column.AggMax, column.AggSum | column.AggAvg, column.AggAll}

// conj draws a conjunction of 0..min(3, k) predicates on distinct
// columns, aggregating any column.
func (m *model) conj(rng *rand.Rand) query.Conjunction {
	names := m.names()
	c := query.Conjunction{Target: names[rng.Intn(len(names))], Aggs: aggMasks[rng.Intn(len(aggMasks))]}
	for _, i := range rng.Perm(len(names))[:rng.Intn(len(names)+1)] {
		c.Preds = append(c.Preds, query.On(names[i], pred(rng, m.cols[i])))
	}
	return c
}

// sameAnswer compares under the mask semantics: Count always, Sum when
// requested, Min, Max and Avg when requested and a row matched.
func sameAnswer(got, want query.Answer) error {
	has := func(a column.Aggregates) bool { return want.Aggs.Has(a) && want.Count > 0 }
	if got.Aggs != want.Aggs || got.Count != want.Count || (want.Aggs.Has(column.AggSum) && got.Sum != want.Sum) ||
		(has(column.AggMin) && got.Min != want.Min) || (has(column.AggMax) && got.Max != want.Max) || (has(column.AggAvg) && got.Avg != want.Avg) {
		return fmt.Errorf("answered %+v, the oracle %+v", got, want)
	}
	return nil
}

func (m *model) checkConj(c query.Conjunction, got query.Answer, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}
	if err := sameAnswer(got, oracle.Conj(m.cols, m.names(), c)); err != nil {
		return fmt.Errorf("%s at %d rows: %w", c, m.rows(), err)
	}
	return nil
}

// appendBatch appends flat through the table and syncs its log: acked,
// so the model holds it from now on.
func (m *model) appendBatch(flat []int64) error {
	if err := m.tbl.Append(flat); err != nil {
		return err
	}
	if err := m.tbl.SyncLog(); err != nil {
		return err
	}
	for c, vals := range oracle.Columns(flat, m.k()) {
		m.cols[c] = append(m.cols[c], vals...)
	}
	m.appends++
	m.appendRows += uint64(len(flat) / m.k())
	return nil
}

// segments maps the table's WAL segments to their sizes.
func (m *model) segments() map[string]int64 {
	out := map[string]int64{}
	paths, _ := filepath.Glob(filepath.Join(m.dir, "tables", "*", "wal-*.seg"))
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			out[p] = st.Size()
		}
	}
	return out
}

// exec runs one step.
func (m *model) exec(s step) error {
	rng := rand.New(rand.NewSource(s.seed))
	if s.kind == stepLoad {
		m.logf("load %d rows", modelLoaded)
		return m.load(rng)
	}
	if m.tbl == nil {
		m.logf("%s: no table", stepNames[s.kind])
		return nil
	}
	h := m.tbl.Handle()
	switch s.kind {
	case stepQuery:
		m.dueFlush()
		n := 1 + rng.Intn(6)
		m.logf("query ×%d", n)
		for i := 0; i < n; i++ {
			req := query.Request{Pred: pred(rng, m.cols[0]), Aggs: aggMasks[rng.Intn(len(aggMasks))]}
			got, err := h.Execute(req)
			if err := m.checkConj(query.Conjunction{Preds: []query.ColPredicate{{Pred: req.Pred}}, Aggs: req.Aggs}, got, err); err != nil {
				return err
			}
		}
	case stepConj:
		c := m.conj(rng)
		if len(c.Preds) > 0 && rng.Intn(2) == 0 {
			driver := c.Preds[rng.Intn(len(c.Preds))].Col
			m.logf("conj %s, driver %s pinned", c, driver)
			got, ch, err := h.ExplainConj(c, driver)
			if err == nil && (ch.Driver != driver || !ch.Forced) && !ch.Direct {
				return fmt.Errorf("%s: pinned driver %s not honoured: %+v", c, driver, ch)
			}
			return m.checkConj(c, got, err)
		}
		m.logf("conj %s", c)
		m.dueFlush()
		got, err := h.ExecuteConj(c)
		return m.checkConj(c, got, err)
	case stepBatch:
		conjs := make([]query.Conjunction, 1+rng.Intn(4))
		for i := range conjs {
			conjs[i] = m.conj(rng)
		}
		clamp := rng.Intn(3) == 0
		m.logf("batch of %d, clamp=%v", len(conjs), clamp)
		if !clamp {
			m.dueFlush()
		}
		before := h.Progress()
		answers, errs := h.ExecuteConjBatch(conjs, query.BatchOpts{Clamp: clamp})
		for i, c := range conjs {
			if err := m.checkConj(c, answers[i], errs[i]); err != nil {
				return fmt.Errorf("batch query %d: %w", i, err)
			}
			// A follower plans no indexing work; in creation its suspended
			// step still copies the one row per shard its answer reads.
			if st := answers[i].Stats; i > 0 && st.WorkSeconds != 0 && st.Delta*float64(m.rows()) > float64(h.Shards())+0.5 {
				return fmt.Errorf("batch follower %d spent %g s of indexing work (δ %g)", i, st.WorkSeconds, st.Delta)
			}
		}
		// A clamped batch plans no indexing work either: progress moves by
		// no more than those copies.
		if after := h.Progress(); clamp && (after-before)*float64(m.rows()) > float64(len(conjs)*h.Shards())+0.5 {
			return fmt.Errorf("a clamped batch moved progress %g → %g", before, after)
		}
	case stepQuiescent:
		c := m.conj(rng)
		got, ok, err := h.ExecuteQuiescent(c, nil)
		m.logf("quiescent %s: answered=%v", c, ok)
		if ok || err != nil {
			return m.checkConj(c, got, err)
		}
	case stepAppend:
		if rng.Intn(8) == 0 {
			flat := m.tuples(rng, m.rows(), 1+rng.Intn(300), rng.Intn(2) == 0)
			what := "one value out of domain"
			if m.k() > 1 && rng.Intn(2) == 0 {
				flat, what = flat[:len(flat)-1], "one value short of a row"
			} else {
				flat[rng.Intn(len(flat))] = column.MaxMagnitude
			}
			m.logf("append %d values, %s", len(flat), what)
			before := m.tbl.Info()
			if err := m.tbl.Append(flat); err == nil {
				return fmt.Errorf("a batch with %s was accepted", what)
			}
			if info := m.tbl.Info(); info.Rows != before.Rows || info.Appends != before.Appends {
				return fmt.Errorf("a refused batch moved the table: %d → %d rows, %d → %d appends", before.Rows, info.Rows, before.Appends, info.Appends)
			}
			return nil
		}
		seal := m.sealRows()
		n := []int{1, 7, 256, seal - 1, seal + 1, 3 * seal}[rng.Intn(6)]
		inside := rng.Intn(2) == 0
		m.logf("append %d rows (inside the loaded domain: %v)", n, inside)
		return m.appendBatch(m.tuples(rng, m.rows(), n, inside))
	case stepIdle:
		n := 1 + rng.Intn(40)
		if rng.Intn(3) == 0 {
			n = 20_000
		}
		m.logf("idle: up to %d refine steps", n)
		done := false
		for i := 0; i < n && !done; i++ {
			_, done = h.RefineStep()
		}
		// A quiet spell long enough drains the tail and converges every
		// index, loaded and tail-born alike.
		if n == 20_000 && (!done || !h.Converged() || h.Progress() != 1 || h.PendingRows() != 0) {
			return fmt.Errorf("%d idle slices left the table unconverged: progress %g, %d rows pending", n, h.Progress(), h.PendingRows())
		}
		// Once converged, a slice is a free no-op.
		if done {
			if st, again := h.RefineStep(); !again || st.WorkSeconds != 0 {
				return fmt.Errorf("a slice on a converged table: done=%v, %+v", again, st)
			}
		}
	case stepCheckpoint:
		cp, ok := m.tbl.CaptureCheckpoint()
		if !ok {
			return errors.New("no checkpoint from a durable table")
		}
		var captured []int64
		if err := cp.Rows.Each(func(run []int64) error { captured = append(captured, run...); return nil }); err != nil {
			return err
		}
		if !slices.Equal(captured, h.MaterializeRows()) {
			return errors.New("a checkpoint captured other rows than the table holds")
		}
		// The snapshot holds the rows in the table's own read order, a
		// settled shard's sorted: checked against the model, it becomes it.
		if err := m.checkStructure(); err != nil {
			return err
		}
		m.cols = oracle.Columns(captured, m.k())
		between := rng.Intn(2) == 0
		m.logf("checkpoint at %d rows (an append between capture and write: %v)", m.rows(), between)
		if between {
			if err := m.appendBatch(m.tuples(rng, m.rows(), 1+rng.Intn(300), false)); err != nil {
				return err
			}
		}
		if err := m.tbl.WriteCheckpoint(cp); err != nil {
			return err
		}
		m.snapRows, m.floor = len(captured)/m.k(), cp.Progress
	case stepKill, stepTear:
		return m.restart(rng, s.kind == stepTear)
	case stepDrop:
		m.logf("drop and reload")
		if _, err := m.cat.Drop(modelName); err != nil {
			return err
		}
		if _, ok := m.cat.Get(modelName); ok {
			return errors.New("a dropped table is still served")
		}
		return m.load(rng)
	}
	return nil
}

// restart stops the store hard — no shutdown checkpoint — and recovers
// the table. A tear first logs a batch nobody acks and cuts its frame
// short, as a crash in mid-write leaves it: recovery must truncate
// exactly that frame away.
func (m *model) restart(rng *rand.Rand, tear bool) error {
	var torn string
	var keep int64
	if tear {
		before := m.segments()
		if err := m.tbl.Append(m.tuples(rng, m.rows(), 1+rng.Intn(50), false)); err != nil {
			return err
		}
		for p, size := range m.segments() {
			if grown := size - before[p]; grown > 0 {
				torn, keep = p, before[p]
				if err := os.Truncate(p, keep+1+rng.Int63n(grown-1)); err != nil {
					return err
				}
			}
		}
		m.logf("tear an unacked frame, then kill and recover")
	} else {
		m.logf("kill and recover")
	}
	m.store.Close()
	// The schema travels through the manifest as format 2; a table loaded
	// without one keeps the v1 layout, which has neither key.
	mans, _ := filepath.Glob(filepath.Join(m.dir, "tables", "*", "manifest.json"))
	if len(mans) != 1 {
		return fmt.Errorf("%d manifests on disk, want 1", len(mans))
	}
	man, err := os.ReadFile(mans[0])
	if err != nil {
		return err
	}
	schema, _ := json.Marshal(m.ax.columns)
	for _, key := range []string{`"columns":` + string(schema), `"format":2`} {
		if strings.Contains(string(man), key) != (m.ax.columns != nil) {
			return fmt.Errorf("the manifest of a table of schema %q: %s", m.ax.columns, man)
		}
	}
	if err := m.openCatalog(); err != nil {
		return err
	}
	recs, errs, err := m.store.Recover()
	if err != nil || len(errs) != 0 || len(recs) != 1 {
		return fmt.Errorf("recover: %v %v (%d tables)", err, errs, len(recs))
	}
	if recs[0].Repaired != tear {
		return fmt.Errorf("recovery repaired a torn tail: %v, want %v", recs[0].Repaired, tear)
	}
	if len(recs[0].Batches) > 0 {
		m.ev.tailRecoveries++
	}
	t, err := m.cat.LoadRecovered(recs[0])
	if err != nil {
		return err
	}
	m.adopt(t, m.snapRows)
	if tear {
		m.ev.tears++
		if st, err := os.Stat(torn); err != nil || st.Size() != keep {
			return fmt.Errorf("the torn segment is not cut back to %d bytes: %v %v", keep, st, err)
		}
	}
	if got := t.Options(); !reflect.DeepEqual(got, m.opts) {
		return fmt.Errorf("recovered options %+v, loaded %+v", got, m.opts)
	}
	if info := t.Info(); info.Appends != m.appends || info.AppendedRows != m.appendRows {
		return fmt.Errorf("recovered %d appends of %d rows, acked %d of %d", info.Appends, info.AppendedRows, m.appends, m.appendRows)
	}
	if p := t.Handle().Progress(); p+1e-9 < m.floor {
		return fmt.Errorf("recovered progress %g under the checkpoint's floor %g", p, m.floor)
	}
	// A recovered compressed table is all cold shards again, as a fresh
	// one is: no column has spent a refine slice, and where no replayed
	// row is pending every column reports converged at progress 1.
	if m.ax.enc.Compressed() {
		for _, cs := range t.Handle().ColumnStates() {
			if cs.Refines != 0 || t.Handle().PendingRows() == 0 && !(cs.Converged && cs.Progress == 1) {
				return fmt.Errorf("recovered cold column %q: %d refine slices, converged=%v, progress %g", cs.Name, cs.Refines, cs.Converged, cs.Progress)
			}
		}
	}
	return nil
}

// events counts the seals, claims and settles the table recorded since
// the last call: a one-column table's land in its timeline, a wider
// one's in each column's.
func (m *model) events() {
	var lists [][]obs.EventJSON
	if m.k() == 1 {
		var l []obs.EventJSON
		for _, e := range m.tbl.Obs().Timeline.Snapshot() {
			l = append(l, e.JSON())
		}
		lists = append(lists, l)
	} else {
		for _, cs := range m.tbl.Handle().ColumnStates() {
			lists = append(lists, cs.Events)
		}
	}
	for i, l := range lists {
		if i == len(m.seen) {
			m.seen = append(m.seen, 0)
		}
		for _, e := range l {
			if e.Seq < m.seen[i] {
				continue
			}
			m.seen[i] = e.Seq + 1
			switch {
			case e.Kind == "shard_seal" && e.Attrs["merged"].(int64) > 0 && i == 0:
				m.stepEv.merges++
			case e.Kind == "shard_claim":
				m.stepEv.claims++
			case e.Kind == "shard_settle":
				m.stepEv.settles++
			}
		}
	}
}

// dueFlush notes, before a step's first unclamped batch, whether that
// batch must flush the tail: on a one-column table whose shards have all
// converged, pending rows leave the leader nothing to refine, so the
// batch ends in the flush that seals them. A wider table's other columns
// report no per-shard convergence, so there the model cannot tell a
// column with shard work left from one with only a tail.
func (m *model) dueFlush() {
	h := m.tbl.Handle()
	m.flushDue = m.k() == 1 && h.PendingRows() > 0
	for _, inf := range h.ShardStats() {
		m.flushDue = m.flushDue && inf.Converged
	}
}

// check holds the invariants every step ends with.
func (m *model) check(s step, rowsBefore int) error {
	if m.tbl == nil {
		return nil
	}
	h := m.tbl.Handle()
	m.stepEv = modelEvents{}
	m.events()
	m.ev.add(m.stepEv)
	if info := m.tbl.Info(); info.Rows != m.rows() || info.Appends != m.appends || info.AppendedRows != m.appendRows {
		return fmt.Errorf("info: %d rows, %d appends of %d rows; the model holds %d rows, %d appends of %d", info.Rows, info.Appends, info.AppendedRows, m.rows(), m.appends, m.appendRows)
	}
	if err := m.checkStructure(); err != nil {
		return err
	}
	// Progress stays in [0, 1] and falls only where rows arrived, a seal
	// restarted the shards it merged, or a claim gave a cold shard — which
	// counts as converged — an index to build, the contract
	// shard.Sharded.Progress states; Converged clears likewise.
	p, conv := h.Progress(), h.Converged()
	if p < 0 || p > 1 {
		return fmt.Errorf("progress %g outside [0, 1]", p)
	}
	// Rows waiting in the tail are unindexed: a table that holds any is
	// neither converged nor at full progress.
	if pending := h.PendingRows(); pending > 0 && (conv || p == 1) {
		return fmt.Errorf("%d rows pending, yet converged=%v and progress %g", pending, conv, p)
	}
	// A claim gives the leader's column shard work of its own.
	if due := m.flushDue && m.stepEv.claims == 0; due && h.PendingRows() > 0 {
		return fmt.Errorf("a batch on a table whose shards had all converged left %d rows pending", h.PendingRows())
	}
	m.flushDue = false
	same := s.kind != stepLoad && s.kind != stepKill && s.kind != stepTear && s.kind != stepDrop
	excused := m.rows() != rowsBefore || m.stepEv.merges > 0 || m.stepEv.claims > 0
	if same && !excused && p < m.progress {
		return fmt.Errorf("progress fell %g → %g", m.progress, p)
	}
	if same && !excused && m.conv && !conv {
		return errors.New("a converged table stopped being converged")
	}
	m.progress, m.conv = p, conv
	return nil
}

// checkStructure is the seal path's structure, read through ShardStats
// and MaterializeRows on the first column: the shards and the pending
// tail tile the rows; every zone is the true extrema of its rows; loaded
// shards keep their size (they never merge); tail-born shards below the
// seal size sit rightmost in strictly decreasing size classes; the shard
// count stays within shard.MaxShards; and the rows read back are the
// model's — a wider table's in row order, and every column in lockstep
// (its snapshot refuses to interleave columns whose blocks differ); a
// one-column table's loaded shards in order, sorted once settled, a
// tail-born shard's as a multiset.
func (m *model) checkStructure() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("reading the rows back: %v", r)
		}
	}()
	h := m.tbl.Handle()
	infos, rows := h.ShardStats(), m.cols[0]
	loaded, appended, seal := min(max(m.ax.shards, 1), m.base), m.rows()-m.base, m.sealRows()
	if bound := shard.MaxShards(loaded, appended, seal); len(infos) > bound {
		return fmt.Errorf("%d shards exceed the bound %d (loaded %d, appended %d, seal %d)", len(infos), bound, loaded, appended, seal)
	}
	start, prevClass, seenSmall := 0, 0, false
	for i, inf := range infos {
		if inf.Rows <= 0 || start+inf.Rows > len(rows) {
			return fmt.Errorf("shard %d: %d rows from row %d overrun the %d-row table", i, inf.Rows, start, len(rows))
		}
		if mn, mx := column.MinMax(rows[start : start+inf.Rows]); inf.MinValue != mn || inf.MaxValue != mx {
			return fmt.Errorf("shard %d rows [%d, %d): zone [%d, %d], want [%d, %d]", i, start, start+inf.Rows, inf.MinValue, inf.MaxValue, mn, mx)
		}
		start += inf.Rows
		switch class := bits.Len(uint(inf.Rows)); {
		case i < loaded:
			if inf.Rows != (i+1)*m.base/loaded-i*m.base/loaded {
				return fmt.Errorf("loaded shard %d holds %d rows: loaded shards never merge", i, inf.Rows)
			}
		case inf.Rows >= seal:
			if seenSmall {
				return fmt.Errorf("shard %d (%d rows, at least the seal size) follows a smaller tail-born shard", i, inf.Rows)
			}
		case seenSmall && class >= prevClass:
			return fmt.Errorf("tail-born shard %d (%d rows) is not in a lower size class than its left neighbour", i, inf.Rows)
		default:
			prevClass, seenSmall = class, true
		}
	}
	if start+h.PendingRows() != len(rows) {
		return fmt.Errorf("shards cover %d rows and %d are pending, want %d", start, h.PendingRows(), len(rows))
	}
	flat := h.MaterializeRows()
	if m.k() > 1 {
		states := h.ColumnStates()
		for _, cs := range states {
			if cs.Rows != m.rows() || cs.Blocks != states[0].Blocks {
				return fmt.Errorf("column %q: %d rows in %d blocks, column %q %d in %d", cs.Name, cs.Rows, cs.Blocks, states[0].Name, states[0].Rows, states[0].Blocks)
			}
		}
		if !reflect.DeepEqual(oracle.Columns(flat, m.k()), m.cols) {
			return errors.New("MaterializeRows differs from the model's tuples")
		}
		return nil
	}
	start = 0
	for i, inf := range infos {
		got, want := flat[start:start+inf.Rows], slices.Clone(rows[start:start+inf.Rows])
		if i >= loaded {
			got = slices.Sorted(slices.Values(got))
		}
		if i >= loaded || inf.Form == shard.FormSettled {
			slices.Sort(want)
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("shard %d (%s): MaterializeRows differs from its rows", i, inf.Form)
		}
		start += inf.Rows
	}
	if !slices.Equal(flat[start:], rows[start:]) {
		return errors.New("MaterializeRows differs from the pending rows")
	}
	return nil
}

// runModel replays steps from a fresh directory and returns the first
// failure, numbered by step, with the model's log of what each step did.
func runModel(t *testing.T, ax axes, steps []step) (m *model, err error) {
	m = &model{ax: ax, opts: ax.options(), dir: t.TempDir()}
	if err := m.openCatalog(); err != nil {
		return m, err
	}
	defer func() { m.store.Close() }()
	for i, s := range steps {
		rows := 0
		if m.tbl != nil {
			rows = m.rows()
		}
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			if err := m.exec(s); err != nil {
				return err
			}
			return m.check(s, rows)
		}()
		if err != nil {
			return m, fmt.Errorf("step %d (%s): %w", i+1, stepNames[s.kind], err)
		}
	}
	return m, nil
}

// drawSteps draws a seed's step list: a load, then weighted steps.
func drawSteps(seed int64) []step {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, w := range stepWeights {
		total += w
	}
	steps := []step{{stepLoad, rng.Int63()}}
	for len(steps) <= modelSteps {
		x := rng.Intn(total)
		k := 0
		for x >= stepWeights[k] {
			x -= stepWeights[k]
			k++
		}
		steps = append(steps, step{stepKind(k), rng.Int63()})
	}
	return steps
}

// shrink reduces a failing step list: it drops chunks of steps, halving
// the chunk down to single steps, and keeps every removal after which
// a replay from a fresh directory still fails.
func shrink(t *testing.T, ax axes, steps []step) []step {
	for chunk := len(steps) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(steps); {
			cand := append(slices.Clone(steps[:i]), steps[i+chunk:]...)
			if _, err := runModel(t, ax, cand); err != nil {
				steps = cand
			} else {
				i += chunk
			}
		}
	}
	return steps
}

// TestServedModel is the served table's model test: for each seed it
// loads a durable catalog.Table with one combination of the axes
// (strategy, loaded shards, encoding, schema, workers), drives it
// through a seeded sequence of steps — queries, conjunctions, batches,
// quiescent reads, appends, idle slices, checkpoints, kills, torn tails
// and drops — and checks every answer against the oracle and the
// table's invariants after every step. A failure is shrunk to a minimal
// step list and reported with its seed and axes; replay one seed with
// -run 'TestServedModel/seed=N$' -model.seeds M (M > N).
func TestServedModel(t *testing.T) {
	seeds := modelTier1
	if *modelSeeds > 0 {
		seeds = nil
		for s := int64(0); s < int64(*modelSeeds); s++ {
			seeds = append(seeds, s)
		}
	}
	if *modelSeeds == 0 && !coversAxes(seeds) {
		t.Fatal("the tier-1 seeds do not cover every value of every axis")
	}
	var total modelEvents
	ran := 0
	for _, seed := range seeds {
		ax := axesOf(seed)
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			steps := drawSteps(seed)
			m, err := runModel(t, ax, steps)
			if err == nil {
				total.add(m.ev)
				ran++
				return
			}
			min := shrink(t, ax, steps)
			m, err = runModel(t, ax, min)
			var b strings.Builder
			for i, line := range m.log {
				fmt.Fprintf(&b, "\n  %2d. %s", i+1, line)
			}
			t.Fatalf("seed %d, %s: %v\nminimal steps (%d of %d):%s", seed, ax, err, len(min), len(steps), b.String())
		})
		if !ok {
			break // one shrunk failure is the report; a panic in a later seed's worker would lose it
		}
	}
	// A run of some seeds (-run 'TestServedModel/seed=N$') need not see everything.
	if ran == len(seeds) && (total.merges == 0 || total.claims == 0 || total.settles == 0 || total.tailRecoveries == 0 || total.tears == 0) {
		t.Fatalf("vacuous seed set: %+v", total)
	}
}

// coversAxes reports whether seeds reach every value of every axis.
func coversAxes(seeds []int64) bool {
	seen := map[string]bool{}
	for _, s := range seeds {
		ax := axesOf(s)
		for _, v := range []string{fmt.Sprint("s", ax.strategy), fmt.Sprint("h", ax.shards), fmt.Sprint("e", ax.enc), fmt.Sprint("c", len(ax.columns)), fmt.Sprint("w", ax.workers)} {
			seen[v] = true
		}
	}
	return len(seen) == 4+2+3+3+3
}
