package core

import "repro/internal/column"

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
	progressive

	// Creation state.
	index []int64
	pivot int64
	loCur int // next write position at the top (values <= pivot)
	hiCur int // next write position at the bottom (values > pivot)

	// Refinement state.
	tree *qtree
}

// NewQuicksort builds a Progressive Quicksort index over col. No work
// beyond reading the column's zone statistics happens until the first
// Execute.
func NewQuicksort(col *column.Column, cfg Config) *Quicksort {
	q := &Quicksort{
		pivot: midpoint(col.Min(), col.Max()),
		hiCur: col.Len() - 1,
	}
	q.progressive = newProgressive("PQ", q, col, cfg)
	return q
}

// unitFull implements algorithm: t_pivot and t_swap of Section 3.1.
func (q *Quicksort) unitFull(p Phase) float64 {
	if p == PhaseCreation {
		return q.model.PivotTime(q.n)
	}
	return q.model.SwapTime(q.n)
}

// createCosts implements algorithm: δ is a fraction of a pivot pass, of
// which the query's scan already pays the read — the marginal cost of
// copying one element is t_pivot - t_scan = κ/γ.
func (q *Quicksort) createCosts() (full, marginal float64) {
	return q.model.PivotTime(1), q.model.WriteTime(1)
}

// predict implements algorithm.
func (q *Quicksort) predict(lo, hi int64) (float64, int) {
	w := q.pool.Workers()
	if q.phase == PhaseCreation {
		alpha := q.creationAlpha(lo, hi)
		// (1 - ρ + α) · t_scan: tail scan plus index lookup; both scans
		// run on the parallel kernels.
		return q.model.ParScanTime(q.n-q.copied, w) + q.model.ParScanTime(alpha, w), alpha
	}
	alpha := q.tree.alphaElems(q.tree.root, lo, hi)
	return q.model.TreeLookupTime(q.tree.height) + q.model.ParScanTime(alpha, w), alpha
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

// create implements algorithm: pivot the next segment into the index's
// two frontiers, and scan the frontiers as they stood before it.
func (q *Quicksort) create(units int, lo, hi int64, aggs column.Aggregates) (column.Agg, int) {
	oldLo, oldHi, oldCopied := q.loCur, q.hiCur, q.copied
	res, did := q.createStep(units, lo, hi, aggs)
	if oldCopied > 0 {
		if lo <= q.pivot {
			res.Merge(column.ParAggRange(q.pool, q.index[:oldLo], lo, hi, aggs))
		}
		if hi > q.pivot {
			res.Merge(column.ParAggRange(q.pool, q.index[oldHi+1:], lo, hi, aggs))
		}
	}
	return res, did
}

// answer implements algorithm.
func (q *Quicksort) answer(lo, hi int64, aggs column.Aggregates) column.Agg {
	return q.tree.query(q.tree.root, lo, hi, aggs)
}

// refine implements algorithm: nodes overlapping the queried value
// range first, then the leftmost unfinished ones, the behaviour Section
// 3.1 describes.
func (q *Quicksort) refine(sec float64, lo, hi int64) (float64, bool) {
	perUnit := q.model.SwapTime(1)
	units := workUnits(sec, perUnit)
	left := q.tree.refineRange(q.tree.root, lo, hi, units, 1)
	if left > 0 {
		left = q.tree.refine(q.tree.root, left, 1)
	}
	return float64(units-left) * perUnit, left <= 0
}

// refineProgress implements algorithm.
func (q *Quicksort) refineProgress() float64 {
	return fraction(q.tree.sortedElems(q.tree.root), q.n)
}

// takeSorted implements algorithm: the index array itself, once every
// node of the pivot tree is sorted; the tree goes with it.
func (q *Quicksort) takeSorted() []int64 {
	if !q.tree.sorted() {
		return nil
	}
	sorted := q.index
	q.index, q.tree = nil, nil
	return sorted
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
	if q.pool.Chunks(end-start, minChunkCreate) > 1 {
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

// startRefinement implements algorithm, seeding the pivot tree from the
// creation result: the index array is already partitioned around the
// root pivot.
func (q *Quicksort) startRefinement() {
	root := newQNode(0, q.n, q.col.Min(), q.col.Max())
	root.pivot = q.pivot
	root.left = newQNode(0, q.loCur, q.col.Min(), q.pivot)
	root.right = newQNode(q.loCur, q.n, q.pivot+1, q.col.Max())
	root.state = qSplit
	q.tree = newQTree(q.index, q.cfg.L1Elements, root, q.pool)
	q.tree.promote(root)
}
