package core

import (
	"math/bits"

	"repro/internal/blocks"
	"repro/internal/column"
)

// rstate is the lifecycle of one radix-tree node.
type rstate uint8

const (
	rBucket    rstate = iota // leaf bucket holding unsorted elements
	rMerging                 // draining into the final sorted array
	rSplitting               // repartitioning into 64 sub-buckets
	rInternal                // fully repartitioned; children carry on
	rMerged                  // region [start, end) of the final array
)

// rnode is one node of the radix partitioning tree (Section 3.2: "We
// keep track of the buckets using a tree in which the nodes point
// towards either the leaf buckets or towards a position in the final
// sorted array in case the leaf buckets have already been merged").
type rnode struct {
	lo, hi     int64 // inclusive value range this node covers
	state      rstate
	list       *blocks.List  // elements (rBucket, rMerging, rSplitting)
	cur        blocks.Cursor // consumption progress (rMerging, rSplitting)
	children   []*rnode      // rSplitting, rInternal
	childShift uint
	start, end int // region in the final array (rMerged, rMerging)
}

// childShiftFor returns the shift that extracts the next log2(b) most
// significant bits of the span [lo, hi]. Always >= 0; 0 means children
// cover single values.
func childShiftFor(lo, hi int64, radixBits int) uint {
	span := uint64(hi - lo)
	bl := bits.Len64(span)
	if bl <= radixBits {
		return 0
	}
	return uint(bl - radixBits)
}

// RadixMSD is Progressive Radixsort (MSD), Section 3.2.
//
// Creation: each query moves δ·N elements from the base column into 64
// buckets selected by the most significant bits. Buckets are linked
// lists of fixed-size blocks.
//
// Refinement: buckets are recursively repartitioned by the next 6 most
// significant bits; buckets that fit in L1 are sorted directly into
// their position in the final sorted array, left to right.
//
// Consolidation: a B+-tree is built progressively over the final array.
type RadixMSD struct {
	progressive

	buckets int
	mask    int64

	root     *rnode
	bz       bucketizer // parBucketize's buffers, creation only
	leaf     []int64    // sortLeaf's scratch, refinement only
	final    []int64
	writeOff int
}

// NewRadixMSD builds a Progressive Radixsort (MSD) index over col.
func NewRadixMSD(col *column.Column, cfg Config) *RadixMSD {
	r := &RadixMSD{}
	r.progressive = newProgressive("PMSD", r, col, cfg)
	r.buckets = 1 << r.cfg.RadixBits
	r.mask = int64(r.buckets) - 1
	r.root = &rnode{lo: col.Min(), hi: col.Max(), state: rInternal}
	r.root.childShift = childShiftFor(r.root.lo, r.root.hi, r.cfg.RadixBits)
	r.root.children = r.makeChildren(r.root)
	for _, c := range r.root.children {
		r.bz.lists = append(r.bz.lists, c.list)
	}
	return r
}

// makeChildren allocates the 64 sub-buckets of a node.
func (r *RadixMSD) makeChildren(n *rnode) []*rnode {
	shift := n.childShift
	kids := make([]*rnode, r.buckets)
	for i := range kids {
		clo := n.lo + int64(i)<<shift
		chi := n.lo + int64(i+1)<<shift - 1
		if chi > n.hi {
			chi = n.hi
		}
		kids[i] = &rnode{
			lo:    clo,
			hi:    chi,
			state: rBucket,
			list:  blocks.NewList(r.cfg.BlockSize),
		}
	}
	return kids
}

// bucketOf returns the child index of v under node n.
func (r *RadixMSD) bucketOf(n *rnode, v int64) int {
	return int((v - n.lo) >> n.childShift & r.mask)
}

// digits implements digiter: the root's children are creation's buckets.
func (r *RadixMSD) digits(vals []int64, out []uint32) {
	lo, shift, mask := r.root.lo, r.root.childShift, r.mask
	for i, v := range vals {
		out[i] = uint32((v - lo) >> shift & mask)
	}
}

// unitFull implements algorithm: both phases move every element
// through a bucket append once per pass.
func (r *RadixMSD) unitFull(Phase) float64 { return r.model.BucketTime(r.n, r.cfg.BlockSize) }

// createCosts implements algorithm.
func (r *RadixMSD) createCosts() (full, marginal float64) {
	full = r.model.BucketTime(1, r.cfg.BlockSize)
	return full, full - r.model.ScanTime(1)
}

// predict implements algorithm.
func (r *RadixMSD) predict(lo, hi int64) (float64, int) {
	if r.phase == PhaseCreation {
		inBuckets := r.alphaBuckets(lo, hi)
		return r.model.ParScanTime(r.n-r.copied, r.pool.Workers()) +
			r.model.BucketScanTime(inBuckets, r.cfg.BlockSize), inBuckets
	}
	inBuckets, inSorted := r.alphaTree(r.root, lo, hi)
	return r.model.TreeLookupTime(r.treeDepth()) +
		r.model.BucketScanTime(inBuckets, r.cfg.BlockSize) +
		r.model.ParScanTime(inSorted, r.pool.Workers()), inBuckets + inSorted
}

// treeDepth is a cheap upper bound on the radix-tree height for the
// t_lookup term: levels of log2(b) bits over the value span.
func (r *RadixMSD) treeDepth() int {
	span := uint64(r.root.hi - r.root.lo)
	return 1 + bits.Len64(span)/r.cfg.RadixBits
}

// alphaBuckets counts elements in creation-phase buckets the answer
// must scan.
func (r *RadixMSD) alphaBuckets(lo, hi int64) int {
	iLo, iHi, ok := r.childRange(r.root, lo, hi)
	if !ok {
		return 0
	}
	total := 0
	for i := iLo; i <= iHi; i++ {
		total += r.root.children[i].list.Count()
	}
	return total
}

// childRange clamps the value range to child indices of n.
func (r *RadixMSD) childRange(n *rnode, lo, hi int64) (int, int, bool) {
	if hi < n.lo || lo > n.hi {
		return 0, 0, false
	}
	if lo < n.lo {
		lo = n.lo
	}
	if hi > n.hi {
		hi = n.hi
	}
	return r.bucketOf(n, lo), r.bucketOf(n, hi), true
}

// alphaTree walks the radix tree estimating scanned element counts in
// (bucket-resident, sorted-region) form.
func (r *RadixMSD) alphaTree(n *rnode, lo, hi int64) (int, int) {
	if n == nil || hi < n.lo || lo > n.hi {
		return 0, 0
	}
	switch n.state {
	case rBucket:
		return n.list.Count(), 0
	case rMerging:
		return n.cur.Remaining(n.list), r.writeOff - n.start
	case rSplitting:
		b := n.cur.Remaining(n.list)
		iLo, iHi, ok := r.childRange(n, lo, hi)
		if !ok {
			return b, 0
		}
		s := 0
		for i := iLo; i <= iHi; i++ {
			cb, cs := r.alphaTree(n.children[i], lo, hi)
			b += cb
			s += cs
		}
		return b, s
	case rInternal:
		iLo, iHi, ok := r.childRange(n, lo, hi)
		if !ok {
			return 0, 0
		}
		b, s := 0, 0
		for i := iLo; i <= iHi; i++ {
			cb, cs := r.alphaTree(n.children[i], lo, hi)
			b += cb
			s += cs
		}
		return b, s
	default: // rMerged
		arr := r.final[n.start:n.end]
		return 0, column.UpperBound(arr, hi) - column.LowerBound(arr, lo)
	}
}

// create implements algorithm: scan the pre-insert bucket state, then
// bucket the next segment while summing it (Section 3.2's "while
// scanning the original column, we place N·δ elements into the
// buckets").
func (r *RadixMSD) create(units int, lo, hi int64, aggs column.Aggregates) (column.Agg, int) {
	res := column.NewAgg()
	if iLo, iHi, ok := r.childRange(r.root, lo, hi); ok {
		for i := iLo; i <= iHi; i++ {
			res.Merge(r.root.children[i].list.AggRange(lo, hi, aggs))
		}
	}
	seg, did := r.bucketStep(units, lo, hi, aggs, &r.bz, r)
	res.Merge(seg)
	return res, did
}

// answer implements algorithm.
func (r *RadixMSD) answer(lo, hi int64, aggs column.Aggregates) column.Agg {
	return r.queryNode(r.root, lo, hi, aggs)
}

// queryNode answers from the radix tree; every element lives in exactly
// one place (a bucket suffix, a child, or a final-array region).
func (r *RadixMSD) queryNode(n *rnode, lo, hi int64, aggs column.Aggregates) column.Agg {
	if n == nil || hi < n.lo || lo > n.hi {
		return column.NewAgg()
	}
	switch n.state {
	case rBucket:
		return n.list.AggRange(lo, hi, aggs)
	case rMerging:
		// Copied prefix lives in final[start:writeOff], sorted only
		// after completion, so scan it predicated; remainder in list.
		res := column.ParAggRange(r.pool, r.final[n.start:r.writeOff], lo, hi, aggs)
		res.Merge(n.cur.AggRemaining(n.list, lo, hi, aggs))
		return res
	case rSplitting:
		res := n.cur.AggRemaining(n.list, lo, hi, aggs)
		if iLo, iHi, ok := r.childRange(n, lo, hi); ok {
			for i := iLo; i <= iHi; i++ {
				res.Merge(r.queryNode(n.children[i], lo, hi, aggs))
			}
		}
		return res
	case rInternal:
		res := column.NewAgg()
		if iLo, iHi, ok := r.childRange(n, lo, hi); ok {
			for i := iLo; i <= iHi; i++ {
				res.Merge(r.queryNode(n.children[i], lo, hi, aggs))
			}
		}
		return res
	default: // rMerged
		return column.AggSorted(r.final[n.start:n.end], lo, hi, aggs)
	}
}

// refine implements algorithm.
func (r *RadixMSD) refine(sec float64, _, _ int64) (float64, bool) {
	perUnit := r.model.BucketTime(1, r.cfg.BlockSize)
	units := workUnits(sec, perUnit)
	left := r.process(r.root, units)
	return float64(units-left) * perUnit, left <= 0
}

// refineProgress implements algorithm: the merged prefix of the final
// array, which grows strictly left to right.
func (r *RadixMSD) refineProgress() float64 { return fraction(r.writeOff, r.n) }

// takeSorted implements algorithm: the radix tree, merged down to its
// root, goes with the array.
func (r *RadixMSD) takeSorted() []int64 {
	if r.root.state != rMerged {
		return nil
	}
	sorted := r.final
	r.final, r.root, r.leaf = nil, nil, nil
	return sorted
}

// startRefinement implements algorithm.
func (r *RadixMSD) startRefinement() {
	r.bz = bucketizer{}
	r.final = make([]int64, r.n)
	r.writeOff = 0
}

// process advances the refinement DFS with the given element budget and
// returns the unused budget. Merging into the final array happens
// strictly left to right so writeOff only ever grows sequentially.
func (r *RadixMSD) process(n *rnode, budget int) int {
	if budget <= 0 || n.state == rMerged {
		return budget
	}
	switch n.state {
	case rBucket:
		// Decide: merge directly (small or single-valued) or split.
		if n.list.Count() <= r.cfg.L1Elements || n.lo >= n.hi {
			n.start = r.writeOff
			n.state = rMerging
			return r.process(n, budget)
		}
		n.childShift = childShiftFor(n.lo, n.hi, r.cfg.RadixBits)
		n.children = r.makeChildren(n)
		n.state = rSplitting
		return r.process(n, budget)
	case rMerging:
		for budget > 0 {
			run := n.cur.NextRun(n.list, budget)
			if run == nil {
				break
			}
			r.writeOff += copy(r.final[r.writeOff:], run)
			budget -= len(run)
		}
		if n.cur.Remaining(n.list) == 0 {
			n.end = r.writeOff
			if n.lo < n.hi {
				sortLeaf(r.final[n.start:n.end], &r.leaf)
				// Charge the comparison sort beyond the per-element
				// copy already billed; may overshoot by one node.
				budget -= sortCost(n.end - n.start)
			}
			n.list = nil
			n.state = rMerged
		}
		return budget
	case rSplitting:
		for budget > 0 {
			run := n.cur.NextRun(n.list, budget)
			if run == nil {
				break
			}
			lo, shift, mask, kids := n.lo, n.childShift, r.mask, n.children
			for _, v := range run {
				kids[(v-lo)>>shift&mask].list.Append(v)
			}
			budget -= len(run)
		}
		if n.cur.Remaining(n.list) == 0 {
			n.list = nil
			n.state = rInternal
			return r.process(n, budget)
		}
		return budget
	case rInternal:
		allMerged := true
		for _, c := range n.children {
			if c.state == rMerged {
				continue
			}
			budget = r.process(c, budget)
			if c.state != rMerged {
				allMerged = false
				break // strict left-to-right merge order
			}
			if budget <= 0 {
				// Check whether this was the last child anyway.
				allMerged = allMerged && r.allChildrenMerged(n)
				break
			}
		}
		if allMerged && r.allChildrenMerged(n) {
			n.start = n.children[0].start
			n.end = n.children[len(n.children)-1].end
			n.children = nil
			n.state = rMerged
		}
		return budget
	}
	return budget
}

func (r *RadixMSD) allChildrenMerged(n *rnode) bool {
	for _, c := range n.children {
		if c.state != rMerged {
			return false
		}
	}
	return true
}
