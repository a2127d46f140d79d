package core

import (
	"slices"

	"repro/internal/blocks"
	"repro/internal/column"
)

// bstate is the lifecycle of one equi-height bucket.
type bstate uint8

const (
	bPending  bstate = iota // elements still in the block list
	bCopying                // draining into the final array around a pivot
	bRefining               // progressive quicksort over the final region
	bDone                   // region sorted
)

// bbucket is one equi-height bucket and its merge state.
type bbucket struct {
	lo, hi int64 // inclusive value bounds (from the separators)
	list   *blocks.List
	cur    blocks.Cursor
	state  bstate

	regStart, regEnd int // region in the final array
	top, bottom      int // pivot-copy cursors (bCopying)
	pivot            int64
	tree             *qtree // per-bucket quicksort (bRefining)
}

// Bucketsort is Progressive Bucketsort (equi-height), Section 3.3.
//
// Creation: like Radixsort (MSD) but the bucket for an element is found
// by binary search over value-based separators that evenly divide the
// data, so buckets stay balanced under skew. The separators come from a
// deterministic evenly-spaced sample taken on the first query.
//
// Refinement: buckets are merged in order into the final sorted array,
// each sorted by its own Progressive Quicksort; at most one quicksort
// is active at a time.
//
// Consolidation: a B+-tree is built progressively over the final array.
type Bucketsort struct {
	progressive

	bucketCount int
	sep         []int64 // bucketCount-1 separators
	bks         []*bbucket
	bz          bucketizer // parBucketize's buffers, creation only
	leaf        []int64    // sortLeaf's scratch, handed from bucket tree to bucket tree

	final  []int64
	active int // index of the bucket currently being merged
}

// sampleSize is the number of evenly spaced elements used to derive the
// equi-height separators on the first query.
const sampleSize = 4096

// NewBucketsort builds a Progressive Bucketsort index over col.
func NewBucketsort(col *column.Column, cfg Config) *Bucketsort {
	b := &Bucketsort{}
	b.progressive = newProgressive("PB", b, col, cfg)
	b.bucketCount = 1 << b.cfg.RadixBits
	return b
}

// initBuckets derives the separators from an evenly spaced sample and
// allocates the buckets. Called lazily by the first query's prediction
// ("obtained in the scan to answer the first query").
func (b *Bucketsort) initBuckets() {
	vals := b.col.Values()
	k := sampleSize
	if k > b.n {
		k = b.n
	}
	sample := make([]int64, k)
	step := float64(b.n) / float64(k)
	for i := 0; i < k; i++ {
		sample[i] = vals[int(float64(i)*step)]
	}
	slices.Sort(sample)
	b.sep = make([]int64, 0, b.bucketCount-1)
	for i := 1; i < b.bucketCount; i++ {
		b.sep = append(b.sep, sample[i*k/b.bucketCount])
	}
	b.bks = make([]*bbucket, b.bucketCount)
	for i := range b.bks {
		lo, hi := b.col.Min(), b.col.Max()
		if i > 0 {
			lo = b.sep[i-1]
		}
		if i < len(b.sep) {
			hi = b.sep[i] - 1
		}
		b.bks[i] = &bbucket{lo: lo, hi: hi, list: blocks.NewList(b.cfg.BlockSize)}
		b.bz.lists = append(b.bz.lists, b.bks[i].list)
	}
}

// bucketIndexOf returns the bucket for v: the number of separators <= v.
func (b *Bucketsort) bucketIndexOf(v int64) int {
	return bucketIndex(b.sep, v)
}

// digits implements digiter.
func (b *Bucketsort) digits(vals []int64, out []uint32) {
	for i, v := range vals {
		out[i] = uint32(bucketIndex(b.sep, v))
	}
}

// bucketRange returns the bucket indices overlapping [lo, hi].
func (b *Bucketsort) bucketRange(lo, hi int64) (int, int) {
	return b.bucketIndexOf(lo), b.bucketIndexOf(hi)
}

// unitFull implements algorithm.
func (b *Bucketsort) unitFull(p Phase) float64 {
	if p == PhaseCreation {
		// δ = t_budget / (log2(b)·t_bucket), Section 3.3.
		return b.model.EquiHeightBucketTime(b.n, b.cfg.BlockSize, b.bucketCount)
	}
	// "the cost model for this phase is equivalent to the cost model of
	// Progressive Quicksort."
	return b.model.SwapTime(b.n)
}

// createCosts implements algorithm (Section 3.3; the bucket choice
// costs an extra log2(b) per element).
func (b *Bucketsort) createCosts() (full, marginal float64) {
	full = b.model.EquiHeightBucketTime(1, b.cfg.BlockSize, b.bucketCount)
	return full, full - b.model.ScanTime(1)
}

// predict implements algorithm.
func (b *Bucketsort) predict(lo, hi int64) (float64, int) {
	if b.bks == nil {
		b.initBuckets()
	}
	iLo, iHi := b.bucketRange(lo, hi)
	if b.phase == PhaseCreation {
		alpha := 0
		for i := iLo; i <= iHi; i++ {
			alpha += b.bks[i].list.Count()
		}
		return b.model.ParScanTime(b.n-b.copied, b.pool.Workers()) +
			b.model.BucketScanTime(alpha, b.cfg.BlockSize), alpha
	}
	inBuckets, inArray := 0, 0
	for i := iLo; i <= iHi; i++ {
		bk := b.bks[i]
		switch bk.state {
		case bPending:
			inBuckets += bk.list.Count()
		case bCopying:
			inBuckets += bk.cur.Remaining(bk.list)
			inArray += (bk.top - bk.regStart) + (bk.regEnd - 1 - bk.bottom)
		case bRefining:
			inArray += bk.tree.alphaElems(bk.tree.root, lo, hi)
		case bDone:
			arr := b.final[bk.regStart:bk.regEnd]
			inArray += column.UpperBound(arr, hi) - column.LowerBound(arr, lo)
		}
	}
	return b.model.TreeLookupTime(b.cfg.RadixBits+1) + // log2(b)+1 levels of bucket lookup
		b.model.BucketScanTime(inBuckets, b.cfg.BlockSize) +
		b.model.ParScanTime(inArray, b.pool.Workers()), inBuckets + inArray
}

// create implements algorithm: scan the pre-insert buckets, then insert
// the next segment while summing it.
func (b *Bucketsort) create(units int, lo, hi int64, aggs column.Aggregates) (column.Agg, int) {
	res := column.NewAgg()
	iLo, iHi := b.bucketRange(lo, hi)
	for i := iLo; i <= iHi; i++ {
		res.Merge(b.bks[i].list.AggRange(lo, hi, aggs))
	}
	seg, did := b.bucketStep(units, lo, hi, aggs, &b.bz, b)
	res.Merge(seg)
	return res, did
}

// answer implements algorithm.
func (b *Bucketsort) answer(lo, hi int64, aggs column.Aggregates) column.Agg {
	res := column.NewAgg()
	iLo, iHi := b.bucketRange(lo, hi)
	for i := iLo; i <= iHi; i++ {
		res.Merge(b.queryBucket(b.bks[i], lo, hi, aggs))
	}
	return res
}

func (b *Bucketsort) queryBucket(bk *bbucket, lo, hi int64, aggs column.Aggregates) column.Agg {
	switch bk.state {
	case bPending:
		return bk.list.AggRange(lo, hi, aggs)
	case bCopying:
		// Copied parts sit at the two ends of the region; the rest is
		// still in the block list.
		res := column.ParAggRange(b.pool, b.final[bk.regStart:bk.top], lo, hi, aggs)
		res.Merge(column.ParAggRange(b.pool, b.final[bk.bottom+1:bk.regEnd], lo, hi, aggs))
		res.Merge(bk.cur.AggRemaining(bk.list, lo, hi, aggs))
		return res
	case bRefining:
		return bk.tree.query(bk.tree.root, lo, hi, aggs)
	default: // bDone
		return column.AggSorted(b.final[bk.regStart:bk.regEnd], lo, hi, aggs)
	}
}

// refine implements algorithm.
func (b *Bucketsort) refine(sec float64, _, _ int64) (float64, bool) {
	did := b.refineStep(sec)
	return did, did != 0
}

// refineProgress implements algorithm: buckets merge strictly in order,
// so the finalized prefix is the active bucket's region start.
func (b *Bucketsort) refineProgress() float64 {
	done := b.n
	if b.active < len(b.bks) {
		done = b.bks[b.active].regStart
	}
	return fraction(done, b.n)
}

// takeSorted implements algorithm: the buckets, all merged, go with the
// array.
func (b *Bucketsort) takeSorted() []int64 {
	if b.active < len(b.bks) {
		return nil
	}
	sorted := b.final
	b.final, b.bks, b.leaf = nil, nil, nil
	return sorted
}

// startRefinement implements algorithm, fixing the final-array regions
// from the (now final) bucket counts.
func (b *Bucketsort) startRefinement() {
	b.bz = bucketizer{}
	b.final = make([]int64, b.n)
	off := 0
	for _, bk := range b.bks {
		bk.regStart = off
		off += bk.list.Count()
		bk.regEnd = off
		bk.top = bk.regStart
		bk.bottom = bk.regEnd - 1
		bk.pivot = midpoint(bk.lo, bk.hi)
	}
	b.active = 0
}

// refineStep advances the merge of the active bucket, spending up to
// sec seconds of modeled work; returns the seconds consumed.
func (b *Bucketsort) refineStep(sec float64) float64 {
	consumed := 0.0
	for sec-consumed > workEpsilon && b.active < len(b.bks) {
		bk := b.bks[b.active]
		switch bk.state {
		case bPending:
			if bk.list.Count() == 0 {
				bk.state = bDone
				b.active++
				continue
			}
			bk.state = bCopying
		case bCopying:
			perUnit := b.model.PivotTime(1)
			units := int((sec - consumed) / perUnit)
			if units <= 0 {
				units = 1
			}
			did := 0
			for did < units {
				run := bk.cur.NextRun(bk.list, units-did)
				if run == nil {
					break
				}
				// Predication-style frontier write (same kernel as the
				// quicksort creation phase).
				top, bottom := bk.top, bk.bottom
				for _, v := range run {
					b.final[top] = v
					b.final[bottom] = v
					le := leq(v, bk.pivot)
					top += le
					bottom -= 1 - le
				}
				bk.top, bk.bottom = top, bottom
				did += len(run)
			}
			consumed += float64(did) * perUnit
			if bk.cur.Remaining(bk.list) == 0 {
				bk.list = nil
				b.seedBucketTree(bk)
			}
		case bRefining:
			perUnit := b.model.SwapTime(1)
			units := int((sec - consumed) / perUnit)
			if units <= 0 {
				units = 1
			}
			left := bk.tree.refine(bk.tree.root, units, 1)
			consumed += float64(units-left) * perUnit
			if bk.tree.sorted() {
				bk.tree = nil
				bk.state = bDone
				b.active++
			}
		case bDone:
			b.active++
		}
	}
	return consumed
}

// seedBucketTree turns a fully copied bucket region into a per-bucket
// quicksort tree, already partitioned around the bucket pivot.
func (b *Bucketsort) seedBucketTree(bk *bbucket) {
	root := newQNode(bk.regStart, bk.regEnd, bk.lo, bk.hi)
	root.pivot = bk.pivot
	root.left = newQNode(bk.regStart, bk.top, bk.lo, bk.pivot)
	root.right = newQNode(bk.top, bk.regEnd, bk.pivot+1, bk.hi)
	root.state = qSplit
	bk.tree = newQTree(b.final, b.cfg.L1Elements, root, b.pool)
	bk.tree.scratch = b.leaf
	bk.tree.promote(root)
	bk.state = bRefining
	if bk.tree.sorted() {
		bk.tree = nil
		bk.state = bDone
		b.active++
	}
}
