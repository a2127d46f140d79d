package main

import (
	"slices"
	"sort"
)

// The benchmark checks every answer, on cores it shares with the
// server, so the oracles here are exact and cheap: O(log N) for
// single-column predicates, closed form for appended runs, and for the
// conj workload a scan of only the rows the clustered predicate can
// reach. loadgen's oracle (a full scan per check) would cost more than
// the server spends.

// rangeOracle answers SUM and COUNT of the values in [lo, hi] over a
// fixed multiset from a sorted copy and its prefix sums.
type rangeOracle struct {
	sorted []int64
	prefix []int64 // prefix[i] = sum of sorted[:i], wrapping like the server's int64 sum
}

func newRangeOracle(vals []int64) *rangeOracle {
	o := &rangeOracle{sorted: slices.Clone(vals), prefix: make([]int64, len(vals)+1)}
	slices.Sort(o.sorted)
	for i, v := range o.sorted {
		o.prefix[i+1] = o.prefix[i] + v
	}
	return o
}

func (o *rangeOracle) agg(lo, hi int64) (sum, count int64) {
	if lo > hi {
		return 0, 0
	}
	from := sort.Search(len(o.sorted), func(i int) bool { return o.sorted[i] >= lo })
	to := sort.Search(len(o.sorted), func(i int) bool { return o.sorted[i] > hi })
	if to <= from {
		return 0, 0
	}
	return o.prefix[to] - o.prefix[from], int64(to - from)
}

// runAgg is SUM and COUNT over [lo, hi] of a run of n consecutive
// integers starting at first — what one ingest client has appended.
func runAgg(first, n, lo, hi int64) (sum, count int64) {
	lo, hi = max(lo, first), min(hi, first+n-1)
	if lo > hi {
		return 0, 0
	}
	count = hi - lo + 1
	// (lo + hi) * count / 2, halving whichever factor is even: an odd
	// count means hi - lo is even, so lo + hi is too.
	if count%2 == 0 {
		return (lo + hi) * (count / 2), count
	}
	return (lo + hi) / 2 * count, count
}

// conjOracle answers the conj workload's query shape — b IN [lo, hi]
// AND c >= cmin, SUM(a) and COUNT — by brute force over the row window
// that can hold a matching b. Column b tracks the row position, so its
// running maximum bounds from the left where b >= lo can first occur
// and its running minimum from the right bounds where b <= hi can last
// occur; both come from the data, not from the generator's formula.
type conjOracle struct {
	flat   []int64 // row-major a, b, c
	preMax []int64 // preMax[i] = max b over rows [0, i]
	sufMin []int64 // sufMin[i] = min b over rows [i, n)
}

const conjCols = 3

func newConjOracle(flat []int64) *conjOracle {
	n := len(flat) / conjCols
	o := &conjOracle{flat: flat, preMax: make([]int64, n), sufMin: make([]int64, n)}
	for i := 0; i < n; i++ {
		o.preMax[i] = flat[i*conjCols+1]
		if i > 0 && o.preMax[i-1] > o.preMax[i] {
			o.preMax[i] = o.preMax[i-1]
		}
	}
	for i := n - 1; i >= 0; i-- {
		o.sufMin[i] = flat[i*conjCols+1]
		if i < n-1 && o.sufMin[i+1] < o.sufMin[i] {
			o.sufMin[i] = o.sufMin[i+1]
		}
	}
	return o
}

// window returns the half-open row range outside which no row has b in
// [lo, hi].
func (o *conjOracle) window(lo, hi int64) (from, to int) {
	n := len(o.preMax)
	from = sort.Search(n, func(i int) bool { return o.preMax[i] >= lo })
	to = sort.Search(n, func(i int) bool { return o.sufMin[i] > hi })
	return from, max(from, to)
}

func (o *conjOracle) agg(lo, hi, cmin int64) (sum, count int64) {
	from, to := o.window(lo, hi)
	for i := from; i < to; i++ {
		row := o.flat[i*conjCols : i*conjCols+conjCols]
		if row[1] >= lo && row[1] <= hi && row[2] >= cmin {
			sum += row[0]
			count++
		}
	}
	return sum, count
}
