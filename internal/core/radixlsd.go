package core

import (
	"math/bits"

	"repro/internal/blocks"
	"repro/internal/column"
)

// RadixLSD is Progressive Radixsort (LSD), Section 3.4.
//
// Creation: each query moves δ·N elements into 64 buckets keyed by the
// *least* significant 6 bits.
//
// Refinement: elements move from the current bucket set to a fresh one
// keyed by the next 6 bits, FIFO within and across buckets (stable),
// for ceil(log2(max-min)/log2(b)) passes total; afterwards the buckets,
// concatenated in order, form the sorted array, which a final merge
// sub-phase materializes.
//
// The intermediate buckets accelerate point and very narrow range
// queries only. Range queries that would touch every bucket fall back
// to scanning the original column, the paper's "when α == ρ we scan
// the original column" rule; this is why PLSD shows the best robustness
// (the fallback cost is exactly one scan) but the worst cumulative time
// on range-heavy workloads.
type RadixLSD struct {
	progressive

	buckets int
	min     int64
	passes  int // total distribute passes, including creation's pass 0

	bz         bucketizer // parBucketize's buffers, creation only
	passesDone int
	old        *blocks.Set // keyed by digit passesDone-1
	oldIdx     int         // bucket currently being consumed
	oldCur     blocks.Cursor
	next       *blocks.Set // keyed by digit passesDone

	merging  bool
	mergeIdx int
	mergeCur blocks.Cursor
	final    []int64
	writeOff int
}

// NewRadixLSD builds a Progressive Radixsort (LSD) index over col.
func NewRadixLSD(col *column.Column, cfg Config) *RadixLSD {
	r := &RadixLSD{min: col.Min()}
	r.progressive = newProgressive("PLSD", r, col, cfg)
	r.buckets = 1 << r.cfg.RadixBits
	span := uint64(col.Max() - col.Min())
	r.passes = max((bits.Len64(span)+r.cfg.RadixBits-1)/r.cfg.RadixBits, 1)
	r.old = blocks.NewSet(r.buckets, r.cfg.BlockSize)
	for i := range r.buckets {
		r.bz.lists = append(r.bz.lists, r.old.Bucket(i))
	}
	return r
}

// digits implements digiter: creation is distribute pass 0.
func (r *RadixLSD) digits(vals []int64, out []uint32) {
	mn, mask := r.min, int64(r.buckets-1)
	for i, v := range vals {
		out[i] = uint32((v - mn) & mask)
	}
}

// digitRange is the buckets that may hold values of a query range at
// one distribute pass: consecutive digits are consecutive buckets, so
// they are n buckets from first on, wrapping at the bucket count.
type digitRange struct {
	first, n int
	mask     int
}

// at returns the k-th bucket of the range, k in [0, n).
func (d digitRange) at(k int) int { return (d.first + k) & d.mask }

// digitBuckets returns the buckets that may contain values of [lo, hi]
// at distribute pass p, or all=true when every bucket can.
func (r *RadixLSD) digitBuckets(lo, hi int64, p int) (d digitRange, all bool) {
	if hi < r.col.Min() || lo > r.col.Max() {
		return d, false
	}
	if lo < r.col.Min() {
		lo = r.col.Min()
	}
	if hi > r.col.Max() {
		hi = r.col.Max()
	}
	shift := uint(p) * uint(r.cfg.RadixBits)
	a := (lo - r.min) >> shift
	b := (hi - r.min) >> shift
	if b-a >= int64(r.buckets-1) {
		return d, true
	}
	mask := r.buckets - 1
	return digitRange{first: int(a) & mask, n: int(b-a) + 1, mask: mask}, false
}

// refineProgress implements algorithm: completed distribute passes plus
// the current pass's drained fraction; the final merge sub-phase is
// folded into the last pass slot via writeOff.
func (r *RadixLSD) refineProgress() float64 {
	// passes distribute passes total (creation was pass 0) plus one
	// merge; express both as fractions of the refinement phase.
	steps := float64(r.passes) // passes-1 remaining distributes + 1 merge
	if r.merging {
		return (steps - 1 + fraction(r.writeOff, r.n)) / steps
	}
	moved := 0
	if r.next != nil {
		for i := 0; i < r.buckets; i++ {
			moved += r.next.Bucket(i).Count()
		}
	}
	return (float64(r.passesDone-1) + fraction(moved, r.n)) / steps
}

// unitFull implements algorithm: every pass moves every element through
// a bucket append.
func (r *RadixLSD) unitFull(Phase) float64 { return r.model.BucketTime(r.n, r.cfg.BlockSize) }

// createCosts implements algorithm.
func (r *RadixLSD) createCosts() (full, marginal float64) {
	full = r.model.BucketTime(1, r.cfg.BlockSize)
	return full, full - r.model.ScanTime(1)
}

// predict implements algorithm. Point and very narrow range predicates
// hit the intermediate buckets directly (the strategy's fast path);
// wide ranges fall back to scanning the original column per the paper's
// "when α == ρ" rule.
func (r *RadixLSD) predict(lo, hi int64) (float64, int) {
	if r.phase == PhaseCreation {
		alpha, fb := r.creationAlpha(lo, hi)
		if fb {
			// Fallback: one predicated (parallel) scan of the column.
			return r.model.ParScanTime(r.n, r.pool.Workers()), r.copied
		}
		return r.model.ParScanTime(r.n-r.copied, r.pool.Workers()) +
			r.model.BucketScanTime(alpha, r.cfg.BlockSize), alpha
	}
	alpha, all := r.refinementAlpha(lo, hi)
	if all {
		return r.model.ParScanTime(r.n, r.pool.Workers()), r.n
	}
	return r.model.TreeLookupTime(1) +
		r.model.BucketScanTime(alpha, r.cfg.BlockSize), alpha
}

// refinementAlpha counts the bucket-resident elements a narrow query
// scans, or reports fallback=true when scanning the original column is
// at least as cheap — the paper's "when α == ρ we scan the original
// column" rule, generalized by cost comparison: bucket scans pay a
// random access per block, so even a strict subset of the buckets can
// be slower than one sequential pass.
func (r *RadixLSD) refinementAlpha(lo, hi int64) (int, bool) {
	alpha := 0
	if r.merging {
		idxs, all := r.digitBuckets(lo, hi, r.passes-1)
		if all {
			return r.n, true
		}
		for k := range idxs.n {
			i := idxs.at(k)
			switch {
			case i < r.mergeIdx:
				// fully merged into the sorted prefix
			case i == r.mergeIdx:
				alpha += r.mergeCur.Remaining(r.old.Bucket(i))
			default:
				alpha += r.old.Bucket(i).Count()
			}
		}
		if r.bucketScanSlower(alpha) {
			return r.n, true
		}
		pre := r.final[:r.writeOff]
		alpha += column.UpperBound(pre, hi) - column.LowerBound(pre, lo)
		return alpha, false
	}
	oldIdxs, allOld := r.digitBuckets(lo, hi, r.passesDone-1)
	newIdxs, allNew := r.digitBuckets(lo, hi, r.passesDone)
	if allOld || allNew {
		return r.n, true
	}
	for k := range oldIdxs.n {
		i := oldIdxs.at(k)
		switch {
		case i < r.oldIdx:
			// already drained
		case i == r.oldIdx:
			alpha += r.oldCur.Remaining(r.old.Bucket(i))
		default:
			alpha += r.old.Bucket(i).Count()
		}
	}
	for k := range newIdxs.n {
		i := newIdxs.at(k)
		alpha += r.next.Bucket(i).Count()
	}
	if r.bucketScanSlower(alpha) {
		return r.n, true
	}
	return alpha, false
}

// bucketScanSlower reports whether scanning alpha bucket-resident
// elements costs at least as much as one pass over the original
// column. The two sides are deliberately a serial and a parallel
// estimate: each is the cost of the code answer() would actually run —
// bucket scans walk their block lists on the calling goroutine
// (Bucket.AggRange), the fallback is column.ParAggRange on the pool —
// so more workers shift the tradeoff toward the fallback, and with one
// worker ParScanTime is exactly ScanTime.
func (r *RadixLSD) bucketScanSlower(alpha int) bool {
	return r.model.BucketScanTime(alpha, r.cfg.BlockSize) >= r.model.ParScanTime(r.n, r.pool.Workers())
}

// creationAlpha counts the bucket-resident elements a creation-phase
// query must scan, or reports fallback=true when re-scanning the
// already-indexed column prefix is at least as cheap.
func (r *RadixLSD) creationAlpha(lo, hi int64) (int, bool) {
	idxs, all := r.digitBuckets(lo, hi, 0)
	if all {
		return r.copied, true
	}
	alpha := 0
	for k := range idxs.n {
		i := idxs.at(k)
		alpha += r.old.Bucket(i).Count()
	}
	// Serial bucket scan against the parallel prefix scan, like
	// bucketScanSlower: each side is priced as it would execute.
	if r.model.BucketScanTime(alpha, r.cfg.BlockSize) >= r.model.ParScanTime(r.copied, r.pool.Workers()) {
		return r.copied, true
	}
	return alpha, false
}

// create implements algorithm: distribute pass 0 over the next segment,
// after scanning the pre-insert buckets the query's digits select.
func (r *RadixLSD) create(units int, lo, hi int64, aggs column.Aggregates) (column.Agg, int) {
	res := column.NewAgg()
	_, fb := r.creationAlpha(lo, hi)
	oldCopied := r.copied
	if !fb {
		idxs, _ := r.digitBuckets(lo, hi, 0)
		for k := range idxs.n {
			i := idxs.at(k)
			res.Merge(r.old.Bucket(i).AggRange(lo, hi, aggs))
		}
	}
	seg, did := r.bucketStep(units, lo, hi, aggs, &r.bz, r)
	res.Merge(seg)
	if fb {
		// Fallback (α == ρ): the indexed prefix is re-read from the
		// original column, which together with the segment and the
		// tail is exactly one full predicated scan.
		res.Merge(column.ParAggRange(r.pool, r.col.Slice(0, oldCopied), lo, hi, aggs))
	}
	return res, did
}

// answer implements algorithm.
func (r *RadixLSD) answer(lo, hi int64, aggs column.Aggregates) column.Agg {
	// The fallback decision must match the one the cost prediction took
	// (refinementAlpha), so both use the same cost comparison.
	if _, fb := r.refinementAlpha(lo, hi); fb {
		return column.ParAggRange(r.pool, r.col.Values(), lo, hi, aggs)
	}
	if r.merging {
		idxs, all := r.digitBuckets(lo, hi, r.passes-1)
		if all {
			return column.ParAggRange(r.pool, r.col.Values(), lo, hi, aggs)
		}
		// Sorted prefix covers all fully merged buckets (and part of
		// the active one); the rest is still bucket-resident.
		res := column.AggSorted(r.final[:r.writeOff], lo, hi, aggs)
		for k := range idxs.n {
			i := idxs.at(k)
			switch {
			case i < r.mergeIdx:
			case i == r.mergeIdx:
				res.Merge(r.mergeCur.AggRemaining(r.old.Bucket(i), lo, hi, aggs))
			default:
				res.Merge(r.old.Bucket(i).AggRange(lo, hi, aggs))
			}
		}
		return res
	}
	oldIdxs, allOld := r.digitBuckets(lo, hi, r.passesDone-1)
	newIdxs, allNew := r.digitBuckets(lo, hi, r.passesDone)
	if allOld || allNew {
		return column.ParAggRange(r.pool, r.col.Values(), lo, hi, aggs)
	}
	res := column.NewAgg()
	for k := range oldIdxs.n {
		i := oldIdxs.at(k)
		switch {
		case i < r.oldIdx:
		case i == r.oldIdx:
			res.Merge(r.oldCur.AggRemaining(r.old.Bucket(i), lo, hi, aggs))
		default:
			res.Merge(r.old.Bucket(i).AggRange(lo, hi, aggs))
		}
	}
	for k := range newIdxs.n {
		i := newIdxs.at(k)
		res.Merge(r.next.Bucket(i).AggRange(lo, hi, aggs))
	}
	return res
}

// refine implements algorithm: one distribute or merge step. A step
// that moved nothing but switched from distributing to merging still
// made progress.
func (r *RadixLSD) refine(sec float64, _, _ int64) (float64, bool) {
	perUnit := r.model.BucketTime(1, r.cfg.BlockSize)
	units := workUnits(sec, perUnit)
	var did int
	wasMerging := r.merging
	if r.merging {
		did = r.mergeStep(units)
	} else {
		did = r.distributeStep(units)
	}
	return float64(did) * perUnit, did != 0 || wasMerging != r.merging
}

// takeSorted implements algorithm: the merge sub-phase ends refinement,
// and the drained bucket set goes with the array.
func (r *RadixLSD) takeSorted() []int64 {
	if !r.merging || r.writeOff < r.n {
		return nil
	}
	sorted := r.final
	r.final, r.old = nil, nil
	return sorted
}

// startRefinement implements algorithm.
func (r *RadixLSD) startRefinement() {
	r.bz = bucketizer{}
	r.passesDone = 1
	if r.passesDone >= r.passes {
		r.startMerge()
		return
	}
	r.next = blocks.NewSet(r.buckets, r.cfg.BlockSize)
	r.oldIdx = 0
	r.oldCur = blocks.Cursor{}
}

// distributeStep moves up to units elements from the old bucket set to
// the next one, FIFO, and returns how many it moved.
func (r *RadixLSD) distributeStep(units int) int {
	did := 0
	for did < units {
		if r.oldIdx >= r.buckets {
			// Pass complete.
			r.passesDone++
			r.old = r.next
			r.next = nil
			if r.passesDone >= r.passes {
				r.startMerge()
				return did
			}
			r.next = blocks.NewSet(r.buckets, r.cfg.BlockSize)
			r.oldIdx = 0
			r.oldCur = blocks.Cursor{}
			continue
		}
		bucket := r.old.Bucket(r.oldIdx)
		run := r.oldCur.NextRun(bucket, units-did)
		if run == nil {
			bucket.Reset() // free consumed blocks eagerly
			r.oldIdx++
			r.oldCur = blocks.Cursor{}
			continue
		}
		mn, shift, mask, next := r.min, uint(r.passesDone*r.cfg.RadixBits), int64(r.buckets-1), r.next
		for _, v := range run {
			next.Bucket(int((v - mn) >> shift & mask)).Append(v)
		}
		did += len(run)
	}
	return did
}

func (r *RadixLSD) startMerge() {
	r.merging = true
	r.final = make([]int64, r.n)
	r.writeOff = 0
	r.mergeIdx = 0
	r.mergeCur = blocks.Cursor{}
}

// mergeStep copies up to units elements from the final-pass buckets
// into the sorted array, in bucket order.
func (r *RadixLSD) mergeStep(units int) int {
	did := 0
	for did < units && r.writeOff < r.n {
		if r.mergeIdx >= r.buckets {
			break
		}
		bucket := r.old.Bucket(r.mergeIdx)
		run := r.mergeCur.NextRun(bucket, units-did)
		if run == nil {
			bucket.Reset()
			r.mergeIdx++
			r.mergeCur = blocks.Cursor{}
			continue
		}
		r.writeOff += copy(r.final[r.writeOff:], run)
		did += len(run)
	}
	return did
}
