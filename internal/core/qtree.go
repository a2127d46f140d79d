package core

import (
	"math/bits"

	"repro/internal/column"
	"repro/internal/parallel"
)

// sortCost is the work-unit charge for sorting a node of n elements
// outright: n·log2(n) element visits, matching the comparison-sort cost
// that the per-visit σ constant was calibrated against.
func sortCost(n int) int {
	if n <= 1 {
		return n
	}
	return n * bits.Len(uint(n))
}

// qstate is the lifecycle of one quicksort refinement node.
type qstate uint8

const (
	qUnstarted    qstate = iota // no pivoting performed yet
	qPartitioning               // Hoare partition in progress (resumable)
	qSplit                      // partition done, children active
	qSorted                     // region fully sorted
)

// qnode is one node of the binary pivot tree the quicksort refinement
// phase maintains (Section 3.1: "We maintain a binary tree of the pivot
// points. In the nodes of this tree, we keep track of the pivot points
// and how far along the pivoting process we are.").
//
// Region invariants, maintained at every budget pause so queries can
// always be answered exactly:
//
//	state == qPartitioning: arr[start:pl] <= pivot, arr[pr+1:end] > pivot,
//	                        arr[pl:pr+1] unknown;
//	state == qSplit:        left covers values [vmin, pivot],
//	                        right covers (pivot, vmax];
//	state == qSorted:       arr[start:end] is sorted.
type qnode struct {
	start, end int   // region [start, end) in the index array
	vmin, vmax int64 // inclusive value bounds for the region
	pivot      int64
	state      qstate
	pl, pr     int // partition cursors (valid while qPartitioning)
	left       *qnode
	right      *qnode
}

func newQNode(start, end int, vmin, vmax int64) *qnode {
	n := &qnode{start: start, end: end, vmin: vmin, vmax: vmax}
	if end-start == 0 {
		n.state = qSorted
	}
	return n
}

// qtree drives refinement over a contiguous region of arr. It is used
// by Progressive Quicksort over the whole index array and by
// Progressive Bucketsort over each bucket's slot in the final array.
type qtree struct {
	arr    []int64
	l1     int // sort nodes smaller than this outright
	root   *qnode
	height int            // tracked upper bound on tree height, for t_lookup
	pool   *parallel.Pool // sizes the leftover-region scan kernels
	// scratch is sortLeaf's, at most l1 elements; the owner drops it when
	// the tree is sorted.
	scratch []int64
}

func newQTree(arr []int64, l1 int, root *qnode, pool *parallel.Pool) *qtree {
	return &qtree{arr: arr, l1: l1, root: root, height: 1, pool: pool}
}

func (t *qtree) sorted() bool { return t.root.state == qSorted }

// refineRange spends budget (element visits) on nodes overlapping the
// value range [lo, hi], the paper's "focus on refining parts of the
// index that are required for query processing". Returns the unused
// budget.
func (t *qtree) refineRange(n *qnode, lo, hi int64, budget int, depth int) int {
	if n == nil || budget <= 0 || n.state == qSorted || n.vmax < lo || n.vmin > hi {
		return budget
	}
	budget = t.workNode(n, budget, depth)
	if n.state == qSplit {
		budget = t.refineRange(n.left, lo, hi, budget, depth+1)
		budget = t.refineRange(n.right, lo, hi, budget, depth+1)
		t.promote(n)
	}
	return budget
}

// refine spends budget on the leftmost unfinished nodes ("the
// refinement process starts processing the neighboring parts").
func (t *qtree) refine(n *qnode, budget int, depth int) int {
	if n == nil || budget <= 0 || n.state == qSorted {
		return budget
	}
	budget = t.workNode(n, budget, depth)
	if n.state == qSplit {
		budget = t.refine(n.left, budget, depth+1)
		budget = t.refine(n.right, budget, depth+1)
		t.promote(n)
	}
	return budget
}

// workNode advances a single node: starts or continues its partition,
// or sorts it outright when small. Returns the unused budget. May leave
// the node in any state.
func (t *qtree) workNode(n *qnode, budget int, depth int) int {
	if budget <= 0 {
		return budget
	}
	switch n.state {
	case qUnstarted:
		size := n.end - n.start
		if size <= t.l1 || n.vmin >= n.vmax {
			// Sort the node outright (paper: "When we reach a node that
			// is smaller than the L1 cache, we sort the entire node").
			// A node whose value bounds collapsed holds equal values
			// and is trivially sorted (charged one visit per element).
			// The sort is atomic, so the budget can overshoot by at
			// most sortCost(L1Elements) (invariant 3 in DESIGN.md).
			if n.vmin < n.vmax {
				sortLeaf(t.arr[n.start:n.end], &t.scratch)
				n.state = qSorted
				return budget - sortCost(size)
			}
			n.state = qSorted
			return budget - size
		}
		n.pivot = midpoint(n.vmin, n.vmax)
		n.pl, n.pr = n.start, n.end-1
		n.state = qPartitioning
		if depth+1 > t.height {
			t.height = depth + 1
		}
		fallthrough
	case qPartitioning:
		n.pl, n.pr, budget = partition(t.arr, n.pivot, n.pl, n.pr, budget)
		if n.pl > n.pr {
			// Partition complete: split into children.
			n.left = newQNode(n.start, n.pl, n.vmin, n.pivot)
			n.right = newQNode(n.pl, n.end, n.pivot+1, n.vmax)
			n.state = qSplit
			t.promote(n)
		}
	case qSplit:
		// Children carry the remaining work; callers recurse.
	case qSorted:
	}
	return budget
}

// promote marks a split node sorted once both children are, pruning
// them (paper: "When two children of a node are sorted, the entire node
// itself is sorted, and we can prune the child nodes").
func (t *qtree) promote(n *qnode) {
	if n.state == qSplit && n.left.state == qSorted && n.right.state == qSorted {
		n.left, n.right = nil, nil
		n.state = qSorted
	}
}

// query answers the requested aggregates over the inclusive range from
// the current tree state, exactly, scanning as little as the region
// invariants allow.
func (t *qtree) query(n *qnode, lo, hi int64, aggs column.Aggregates) column.Agg {
	if n == nil || n.end == n.start || n.vmax < lo || n.vmin > hi {
		return column.NewAgg()
	}
	arr := t.arr
	switch n.state {
	case qSorted:
		return column.AggSorted(arr[n.start:n.end], lo, hi, aggs)
	case qSplit:
		r := t.query(n.left, lo, hi, aggs)
		r.Merge(t.query(n.right, lo, hi, aggs))
		return r
	case qPartitioning:
		// arr[start:pl] <= pivot, arr[pr+1:end] > pivot, middle unknown.
		switch {
		case hi <= n.pivot:
			return column.ParAggRange(t.pool, arr[n.start:min(n.pr+1, n.end)], lo, hi, aggs)
		case lo > n.pivot:
			return column.ParAggRange(t.pool, arr[n.pl:n.end], lo, hi, aggs)
		default:
			return column.ParAggRange(t.pool, arr[n.start:n.end], lo, hi, aggs)
		}
	default: // qUnstarted
		return column.ParAggRange(t.pool, arr[n.start:n.end], lo, hi, aggs)
	}
}

// alphaElems estimates how many elements query() will touch, without
// touching them; feeds the α term of the refinement cost model.
func (t *qtree) alphaElems(n *qnode, lo, hi int64) int {
	if n == nil || n.end == n.start || n.vmax < lo || n.vmin > hi {
		return 0
	}
	switch n.state {
	case qSorted:
		arr := t.arr[n.start:n.end]
		return column.UpperBound(arr, hi) - column.LowerBound(arr, lo)
	case qSplit:
		return t.alphaElems(n.left, lo, hi) + t.alphaElems(n.right, lo, hi)
	case qPartitioning:
		switch {
		case hi <= n.pivot:
			return min(n.pr+1, n.end) - n.start
		case lo > n.pivot:
			return n.end - n.pl
		default:
			return n.end - n.start
		}
	default:
		return n.end - n.start
	}
}

// sortedElems counts the elements of fully sorted regions under n, for
// convergence-progress reporting. Partially partitioned nodes count as
// zero: the walk is O(live nodes) and only needs to be monotone.
func (t *qtree) sortedElems(n *qnode) int {
	if n == nil {
		return 0
	}
	switch n.state {
	case qSorted:
		return n.end - n.start
	case qSplit:
		return t.sortedElems(n.left) + t.sortedElems(n.right)
	default:
		return 0
	}
}
