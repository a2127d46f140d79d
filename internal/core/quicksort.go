package core

import (
	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/parallel"
	"repro/internal/query"
)

// Quicksort is Progressive Quicksort (Section 3.1).
//
// Creation: an uninitialized array of the column's size is allocated on
// the first query; each query copies another δ·N elements from the base
// column to the top or bottom of that array depending on their relation
// to the root pivot (the midpoint of the column's min and max).
//
// Refinement: the quicksort continues in place, maintaining a binary
// tree of pivots; nodes smaller than L1 are sorted outright.
//
// Consolidation: a B+-tree is built progressively over the sorted
// array.
type Quicksort struct {
	cfg   Config
	model *costmodel.Model
	col   *column.Column
	pool  *parallel.Pool
	n     int

	phase  Phase
	budget budgeter
	last   Stats

	// Creation state.
	index  []int64
	pivot  int64
	loCur  int // next write position at the top (values <= pivot)
	hiCur  int // next write position at the bottom (values > pivot)
	copied int

	// Refinement state.
	tree *qtree

	// Consolidation state.
	cons *consolidator
}

// NewQuicksort builds a Progressive Quicksort index over col. No work
// beyond reading the column's zone statistics happens until the first
// Query.
func NewQuicksort(col *column.Column, cfg Config) *Quicksort {
	cfg = cfg.normalize()
	m := costmodel.New(cfg.Params)
	q := &Quicksort{
		cfg:   cfg,
		model: m,
		col:   col,
		pool:  parallel.New(cfg.Workers),
		n:     col.Len(),
		pivot: midpoint(col.Min(), col.Max()),
		hiCur: col.Len() - 1,
	}
	q.budget = newBudgeter(cfg, m.ParScanTime(q.n, q.pool.Workers()))
	return q
}

// Name implements Index.
func (q *Quicksort) Name() string { return "PQ" }

// Phase implements Index.
func (q *Quicksort) Phase() Phase { return q.phase }

// Converged implements Index.
func (q *Quicksort) Converged() bool { return q.phase == PhaseDone }

// LastStats implements Index.
func (q *Quicksort) LastStats() Stats { return q.last }

// SetIndexingSuspended implements Suspender: while suspended, Execute
// answers exactly but plans no indexing work (the batching scheduler's
// amortization hook).
func (q *Quicksort) SetIndexingSuspended(s bool) { q.budget.suspended = s }

// SetBudgetScale implements BudgetScaler (the shard layer's
// heat-weighted budget split hook).
func (q *Quicksort) SetBudgetScale(f float64) { q.budget.setScale(f) }

// ValueBounds returns the base column's zone statistics, the
// synchronization layer's zone-map pruning hook.
func (q *Quicksort) ValueBounds() (int64, int64) { return q.col.Min(), q.col.Max() }

// Progress implements Progressor.
func (q *Quicksort) Progress() float64 {
	switch q.phase {
	case PhaseCreation:
		return phaseProgress(q.phase, fraction(q.copied, q.n))
	case PhaseRefinement:
		return phaseProgress(q.phase, fraction(q.tree.sortedElems(q.tree.root), q.n))
	case PhaseConsolidation:
		return phaseProgress(q.phase, q.cons.progress())
	default:
		return 1
	}
}

// Execute implements Index: answer the request's predicate with the
// requested aggregates while performing one budget's worth of indexing
// work; the work Stats travel inline in the Answer.
func (q *Quicksort) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, q.col.Min(), q.col.Max(), q.execute)
}

// Query implements Index: the v1 compatibility surface, answering
// SUM/COUNT over [lo, hi] inclusive via Execute (so extreme bounds get
// the same domain clamping).
func (q *Quicksort) Query(lo, hi int64) column.Result {
	ans, _ := q.Execute(query.Request{Pred: query.Range(lo, hi)})
	return ans.Result()
}

// execute answers the clamped inclusive range [lo, hi] with the
// requested aggregates while performing one budget's worth of indexing
// work (creation copying interleaved with the scan, refinement
// pivoting, or consolidation B+-tree building, spilling across phase
// transitions). Once the index is Done the call is strictly read-only —
// it does not even touch q.last — so converged indexes can serve
// concurrent readers under a shared lock (a shard's, or
// progidx.Synchronized's).
func (q *Quicksort) execute(lo, hi int64, aggs column.Aggregates) (column.Agg, Stats) {
	startPhase := q.phase
	base, alpha := q.predictBase(lo, hi)
	planned := q.budget.plan(base, q.unitFull())

	res := column.NewAgg()
	consumed := 0.0
	deltaOverride := -1.0
	if q.phase == PhaseCreation {
		// Section 3.1: the copied segment is summed while it is being
		// pivoted into the index, so it is not scanned twice and the
		// marginal cost of copying one element is t_pivot - t_scan =
		// κ/γ — exactly the paper's t_total = (1-ρ+α-δ)·t_scan +
		// δ·t_pivot once base (which includes the full tail scan) is
		// added.
		marginal := q.model.WriteTime(1)    // seconds per element on top of the scan
		perUnitPlan := q.model.PivotTime(1) // δ is a fraction of a pivot pass
		if q.budget.mode == AdaptiveTime {
			perUnitPlan = marginal
		}
		if q.budget.mode != FixedDelta {
			// Wall-clock budgets size the step against the parallel
			// creation kernel's cost, and report what it consumed in the
			// same seconds; δ budgets keep their fraction-of-data meaning
			// and stay unscaled.
			speedup := q.model.Speedup(q.pool.Workers())
			perUnitPlan /= speedup
			marginal /= speedup
		}
		units := int(planned / perUnitPlan)
		if units < 1 {
			units = 1
		}
		oldLo, oldHi, oldCopied := q.loCur, q.hiCur, q.copied
		seg, did := q.createStep(units, lo, hi, aggs)
		if oldCopied > 0 {
			if lo <= q.pivot {
				res.Merge(column.ParAggRange(q.pool, q.index[:oldLo], lo, hi, aggs))
			}
			if hi > q.pivot {
				res.Merge(column.ParAggRange(q.pool, q.index[oldHi+1:], lo, hi, aggs))
			}
		}
		res.Merge(seg)
		res.Merge(column.ParAggRange(q.pool, q.col.Slice(q.copied, q.n), lo, hi, aggs))
		consumed = float64(did) * marginal
		deltaOverride = float64(did) / float64(q.n) // δ = fraction indexed
		if q.copied == q.n {
			q.startRefinement()
			if spill := planned - float64(did)*perUnitPlan; spill > 0 {
				consumed += q.work(spill, lo, hi)
			}
		}
	} else {
		res = q.answer(lo, hi, aggs)
		consumed = q.work(planned, lo, hi)
	}

	unit := q.unitFullFor(startPhase)
	delta := 0.0
	if unit > 0 {
		delta = consumed / unit
	}
	if deltaOverride >= 0 {
		delta = deltaOverride
	}
	st := Stats{
		Phase:       startPhase,
		Delta:       delta,
		WorkSeconds: consumed,
		BaseSeconds: base,
		Predicted:   base + consumed,
		AlphaElems:  alpha,
		Workers:     q.pool.Workers(),
	}
	if startPhase != PhaseDone {
		q.last = st // a Done call stays read-only for shared-lock readers
	}
	return res, st
}

// unitFull returns the cost of a δ=1 indexing pass in the current
// phase: t_pivot, t_swap or t_copy of Section 3.1.
func (q *Quicksort) unitFull() float64 { return q.unitFullFor(q.phase) }

func (q *Quicksort) unitFullFor(p Phase) float64 {
	switch p {
	case PhaseCreation:
		return q.model.PivotTime(q.n)
	case PhaseRefinement:
		return q.model.SwapTime(q.n)
	case PhaseConsolidation:
		if q.cons != nil {
			return q.model.ConsolidateTime(q.cons.total)
		}
		return q.model.ConsolidateTime(costmodel.ConsolidateCopies(q.n, q.cfg.Fanout))
	default:
		return 0
	}
}

// predictBase returns the cost-model estimate for answering the query
// from the current state (the non-δ terms of the t_total formulas) and
// the α element count it used.
func (q *Quicksort) predictBase(lo, hi int64) (float64, int) {
	w := q.pool.Workers()
	switch q.phase {
	case PhaseCreation:
		alpha := q.creationAlpha(lo, hi)
		// (1 - ρ + α) · t_scan: tail scan plus index lookup; both scans
		// run on the parallel kernels.
		return q.model.ParScanTime(q.n-q.copied, w) + q.model.ParScanTime(alpha, w), alpha
	case PhaseRefinement:
		alpha := q.tree.alphaElems(q.tree.root, lo, hi)
		return q.model.TreeLookupTime(q.tree.height) + q.model.ParScanTime(alpha, w), alpha
	case PhaseConsolidation, PhaseDone:
		alpha := q.cons.matched(lo, hi)
		return q.model.BinarySearchTime(q.n) + q.model.ScanTime(alpha), alpha
	default:
		return 0, 0
	}
}

// creationAlpha counts the index-resident elements the answer scans.
func (q *Quicksort) creationAlpha(lo, hi int64) int {
	if q.copied == 0 {
		return 0
	}
	alpha := 0
	if lo <= q.pivot {
		alpha += q.loCur
	}
	if hi > q.pivot {
		alpha += q.n - 1 - q.hiCur
	}
	return alpha
}

// answer resolves the query exactly from the current index state.
func (q *Quicksort) answer(lo, hi int64, aggs column.Aggregates) column.Agg {
	switch q.phase {
	case PhaseCreation:
		r := column.NewAgg()
		if q.copied > 0 {
			if lo <= q.pivot {
				r.Merge(column.ParAggRange(q.pool, q.index[:q.loCur], lo, hi, aggs))
			}
			if hi > q.pivot {
				r.Merge(column.ParAggRange(q.pool, q.index[q.hiCur+1:], lo, hi, aggs))
			}
		}
		r.Merge(column.ParAggRange(q.pool, q.col.Slice(q.copied, q.n), lo, hi, aggs))
		return r
	case PhaseRefinement:
		return q.tree.query(q.tree.root, lo, hi, aggs)
	default:
		return q.cons.answer(lo, hi, aggs)
	}
}

// work spends up to sec seconds of cost-model work on indexing,
// transitioning phases as they complete (leftover budget spills into
// the next phase), and returns the seconds consumed. The query bounds
// let the refinement phase prioritize the regions the workload touches.
func (q *Quicksort) work(sec float64, lo, hi int64) float64 {
	consumed := 0.0
	for sec-consumed > workEpsilon && q.phase != PhaseDone {
		remaining := sec - consumed
		switch q.phase {
		case PhaseCreation:
			// Creation work is interleaved with answering in Query;
			// work() is only entered afterwards.
			return consumed
		case PhaseRefinement:
			perUnit := q.model.SwapTime(1)
			units := int(remaining / perUnit)
			if units <= 0 {
				units = 1
			}
			left := q.refineRangeFirst(lo, hi, units)
			consumed += float64(units-left) * perUnit
			if q.tree.sorted() {
				q.startConsolidation()
				continue
			}
			if left > 0 {
				return consumed // defensive: refusal to make progress
			}
		case PhaseConsolidation:
			did := q.cons.step(remaining)
			consumed += did
			if q.cons.finished() {
				q.phase = PhaseDone
			}
			if did == 0 {
				return consumed
			}
		}
	}
	return consumed
}

// createStep copies up to units elements from the base column into
// the index, partitioning around the root pivot, while accumulating the
// predicated SUM/COUNT of the copied segment for the in-flight query.
// This is the paper's creation kernel: each value is written to both
// frontier positions and only the matching cursor advances. Extrema,
// when requested, come from one extra AggRange pass over the segment
// (see segmentExtrema), so the fused loop — the paper's SUM workload —
// is byte-identical to v1.
func (q *Quicksort) createStep(units int, lo, hi int64, aggs column.Aggregates) (column.Agg, int) {
	if q.index == nil {
		q.index = make([]int64, q.n)
	}
	start := q.copied
	end := start + units
	if end > q.n {
		end = q.n
	}
	vals := q.col.Values()
	if parCreateChunks(q.pool, end-start) > 1 {
		sum, count := q.createStepParallel(vals[start:end], lo, hi)
		q.copied = end
		return segmentExtrema(q.pool, vals[start:end], lo, hi, aggs, sum, count), end - start
	}
	pivot := q.pivot
	lc, hc := q.loCur, q.hiCur
	idx := q.index
	var sum, count int64
	for i := start; i < end; i++ {
		v := vals[i]
		idx[lc] = v
		idx[hc] = v
		if v <= pivot {
			lc++
		} else {
			hc--
		}
		ge := ^((v - lo) >> 63) & 1
		le := ^((hi - v) >> 63) & 1
		m := ge & le
		sum += v & -m
		count += m
	}
	q.loCur, q.hiCur = lc, hc
	q.copied = end
	return segmentExtrema(q.pool, vals[start:end], lo, hi, aggs, sum, count), end - start
}

// createStepParallel is the multi-core creation kernel (DESIGN.md
// section 6): a two-pass stable partition of seg around the root pivot
// into the index's two frontiers. Pass 1 counts each chunk's <= pivot
// elements (and computes the chunk's predicated query aggregate); the
// prefix sums of those counts give every chunk a private, disjoint
// write window at each frontier, so pass 2 copies with no
// synchronization. The visible layout — values <= pivot at
// [0, loCur) in column order, values > pivot at (hiCur, n) in reverse
// column order — is exactly what the serial fused loop produces; only
// the dead middle zone [loCur, hiCur] (never read by queries) differs,
// because the serial kernel's double-frontier writes leak stale copies
// into it and the parallel kernel writes each element once.
func (q *Quicksort) createStepParallel(seg []int64, lo, hi int64) (sum, count int64) {
	pivot := q.pivot
	chunks := q.pool.Chunks(len(seg), minChunkCreate)
	size := (len(seg) + chunks - 1) / chunks
	les := make([]int, chunks)
	sums := make([]int64, chunks)
	counts := make([]int64, chunks)

	q.pool.Run(len(seg), minChunkCreate, func(c, a, b int) {
		le := 0
		var s, cnt int64
		for _, v := range seg[a:b] {
			le += int(^((pivot - v) >> 63) & 1) // 1 iff v <= pivot
			ge := ^((v - lo) >> 63) & 1
			leq := ^((hi - v) >> 63) & 1
			m := ge & leq
			s += v & -m
			cnt += m
		}
		les[c], sums[c], counts[c] = le, s, cnt
	})

	// Chunk c's windows: ascending from loBase[c] for <= pivot,
	// descending from hiBase[c] for > pivot (prefix sums reproduce the
	// serial cursors' positions after every earlier chunk).
	loBase := make([]int, chunks)
	hiBase := make([]int, chunks)
	lc, hc := q.loCur, q.hiCur
	for c := 0; c < chunks; c++ {
		loBase[c], hiBase[c] = lc, hc
		a, b := c*size, (c+1)*size
		if b > len(seg) {
			b = len(seg)
		}
		lc += les[c]
		hc -= (b - a) - les[c]
	}

	idx := q.index
	q.pool.Run(len(seg), minChunkCreate, func(c, a, b int) {
		wl, wh := loBase[c], hiBase[c]
		for _, v := range seg[a:b] {
			if v <= pivot {
				idx[wl] = v
				wl++
			} else {
				idx[wh] = v
				wh--
			}
		}
	})

	q.loCur, q.hiCur = lc, hc
	for c := 0; c < chunks; c++ {
		sum += sums[c]
		count += counts[c]
	}
	return sum, count
}

// startRefinement seeds the pivot tree from the creation result: the
// index array is already partitioned around the root pivot.
func (q *Quicksort) startRefinement() {
	root := newQNode(0, q.n, q.col.Min(), q.col.Max())
	root.pivot = q.pivot
	root.left = newQNode(0, q.loCur, q.col.Min(), q.pivot)
	root.right = newQNode(q.loCur, q.n, q.pivot+1, q.col.Max())
	root.state = qSplit
	q.tree = newQTree(q.index, q.cfg.L1Elements, root, q.pool)
	q.tree.promote(root)
	q.phase = PhaseRefinement
	if q.tree.sorted() {
		q.startConsolidation()
	}
}

func (q *Quicksort) startConsolidation() {
	q.cons = newConsolidator(q.index, q.cfg.Fanout, q.model)
	q.phase = PhaseConsolidation
	if q.cons.finished() {
		q.phase = PhaseDone
	}
}

// refineRangeFirst prioritizes nodes overlapping the queried value
// range, then spends the remainder on the leftmost unfinished nodes,
// the behaviour Section 3.1 describes.
func (q *Quicksort) refineRangeFirst(lo, hi int64, units int) int {
	left := q.tree.refineRange(q.tree.root, lo, hi, units, 1)
	if left > 0 {
		left = q.tree.refine(q.tree.root, left, 1)
	}
	return left
}

var (
	_ Index      = (*Quicksort)(nil)
	_ Suspender  = (*Quicksort)(nil)
	_ Progressor = (*Quicksort)(nil)
)
