// Package column provides the base-table substrate used by every index
// in this repository: a single column of 64-bit integers with zone
// statistics (min/max) and branch-free scan kernels. A Column is
// immutable once built: a loaded table is sliced into shards as it is,
// and rows appended later go to the shard layer's own tail extents.
//
// The paper's workload is SELECT SUM(R.A) FROM R WHERE R.A BETWEEN v1
// AND v2, i.e. an inclusive range aggregate over one attribute, so the
// column stores values only. All kernels use predication (Ross, 2002;
// Boncz et al., 2005) as the paper prescribes in Section 3: query cost
// must not depend on selectivity, otherwise neither the robustness
// numbers (Table 5) nor the cost models hold.
package column

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cpuid"
)

// vector is true where SumRange runs the AVX2 kernel (sum_amd64.s),
// decided once at start-up; the tests turn it off to run the Go loops.
var vector = cpuid.AVX2

// Result is the answer to an aggregate range query. Count is carried
// alongside Sum because several tests and the harness use it to verify
// selectivity without a second pass.
type Result struct {
	Sum   int64
	Count int64
}

// Aggregates is a bitmask of aggregate functions a query requests.
// Execute threads it through every kernel so new aggregates are data,
// not new interface methods.
type Aggregates uint8

// Aggregate functions, combinable as a bitmask.
const (
	AggSum Aggregates = 1 << iota
	AggCount
	AggMin
	AggMax
	AggAvg

	// AggAll requests every aggregate.
	AggAll = AggSum | AggCount | AggMin | AggMax | AggAvg
)

// Has reports whether any of the bits in b are requested.
func (a Aggregates) Has(b Aggregates) bool { return a&b != 0 }

// NeedsMinMax reports whether the kernels must track extrema.
func (a Aggregates) NeedsMinMax() bool { return a&(AggMin|AggMax) != 0 }

// NeedsSum reports whether the kernels must accumulate a sum (requested
// directly or needed to derive AVG).
func (a Aggregates) NeedsSum() bool { return a&(AggSum|AggAvg) != 0 }

// Normalize resolves the mask the kernels actually compute: the zero
// value defaults to SUM+COUNT (the paper's workload), COUNT is always
// carried (it is free in every kernel and gates MIN/MAX/AVG validity),
// and AVG pulls in SUM.
func (a Aggregates) Normalize() Aggregates {
	if a == 0 {
		a = AggSum | AggCount
	}
	a |= AggCount
	if a.Has(AggAvg) {
		a |= AggSum
	}
	return a
}

// Valid reports whether the mask only contains known aggregate bits.
func (a Aggregates) Valid() bool { return a&^AggAll == 0 }

// String implements fmt.Stringer, e.g. "SUM|COUNT".
func (a Aggregates) String() string {
	if a == 0 {
		return "none"
	}
	names := []struct {
		bit  Aggregates
		name string
	}{
		{AggSum, "SUM"}, {AggCount, "COUNT"}, {AggMin, "MIN"},
		{AggMax, "MAX"}, {AggAvg, "AVG"},
	}
	s := ""
	for _, n := range names {
		if a.Has(n.bit) {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if rest := a &^ AggAll; rest != 0 {
		if s != "" {
			s += "|"
		}
		s += fmt.Sprintf("Aggregates(%#x)", uint8(rest))
	}
	return s
}

// Agg is the multi-aggregate accumulator every kernel fills. Sum and
// Count are always maintained; Min and Max hold the extrema of matching
// elements and are meaningful only when Count > 0 (empty accumulators
// keep the +/-inf sentinels so Merge stays branch-free on validity).
type Agg struct {
	Sum   int64
	Count int64
	Min   int64
	Max   int64
}

// NewAgg returns an empty accumulator with extrema sentinels.
func NewAgg() Agg {
	return Agg{Min: math.MaxInt64, Max: math.MinInt64}
}

// Merge accumulates another partial aggregate into a.
func (a *Agg) Merge(o Agg) {
	a.Sum += o.Sum
	a.Count += o.Count
	if o.Min < a.Min {
		a.Min = o.Min
	}
	if o.Max > a.Max {
		a.Max = o.Max
	}
}

// Result projects the accumulator's SUM/COUNT pair.
func (a Agg) Result() Result { return Result{Sum: a.Sum, Count: a.Count} }

// Column is an in-memory column of int64 values with zone statistics,
// the paper's load-once-then-query setting. It never changes after
// construction, so any sub-slice of it stays valid forever and
// concurrent readers need no synchronization.
type Column struct {
	values []int64
	min    int64
	max    int64
}

// ErrEmpty is returned when constructing a column with no rows.
var ErrEmpty = errors.New("column: empty input")

// MaxMagnitude bounds the absolute value of any element, exclusively:
// values must lie strictly inside ±2^62 so that the branch-free
// comparison kernels (which rely on the subtractions v-lo and hi-v not
// overflowing) are safe. With |v| and |bound| both < 2^62 the
// difference is at most 2^63-2, one bit inside the int64 range; at
// exactly ±2^62 the difference would hit 2^63 and wrap, silently
// dropping matches.
const MaxMagnitude = int64(1) << 62

// New builds a column from values, computing min/max zone statistics in
// one pass. The slice is retained, not copied; callers hand over
// ownership, as a storage engine would after loading.
func New(values []int64) (*Column, error) {
	if len(values) == 0 {
		return nil, ErrEmpty
	}
	mn, mx := MinMax(values)
	return NewWithStats(values, mn, mx)
}

// NewWithStats builds a column from values with caller-supplied zone
// statistics, skipping New's O(N) min/max pass. It exists for callers
// that already computed the extrema while producing the slice — the
// shard partitioner tracks per-partition min/max as it splits a parent
// column, so re-deriving them here would be a duplicated pass over
// every row. The bounds are validated against the kernel-safety domain
// but otherwise trusted: min/max must be the true extrema of values,
// or the zone-map pruning and clamping built on them silently break.
func NewWithStats(values []int64, min, max int64) (*Column, error) {
	if len(values) == 0 {
		return nil, ErrEmpty
	}
	if min > max {
		return nil, fmt.Errorf("column: inverted zone statistics (min=%d max=%d)", min, max)
	}
	if min <= -MaxMagnitude || max >= MaxMagnitude {
		return nil, fmt.Errorf("column: values must lie strictly inside ±2^62 (min=%d max=%d)", min, max)
	}
	return &Column{values: values, min: min, max: max}, nil
}

// MustNew is New for statically known-good inputs (tests, examples).
func MustNew(values []int64) *Column {
	c, err := New(values)
	if err != nil {
		panic(err)
	}
	return c
}

// MinMax returns the extrema of vs in one pass. It panics on an empty
// slice; callers gate on length. It is the single copy of the
// min/max-of-slice loop the zone-map maintenance sites share.
func MinMax(vs []int64) (min, max int64) {
	min, max = vs[0], vs[0]
	for _, v := range vs {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Zone returns a column of no rows that keeps c's zone statistics: what
// is left of a base column once its index has released the rows.
func (c *Column) Zone() *Column { return &Column{min: c.min, max: c.max} }

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.values) }

// Min returns the smallest value in the column (zone statistic).
func (c *Column) Min() int64 { return c.min }

// Max returns the largest value in the column (zone statistic).
func (c *Column) Max() int64 { return c.max }

// Values exposes the backing slice. Callers must treat it as
// read-only; indexes copy out of it, never mutate it.
func (c *Column) Values() []int64 { return c.values }

// Slice returns the sub-slice [from, to) of the backing array.
func (c *Column) Slice(from, to int) []int64 { return c.values[from:to] }

// Sum answers the inclusive range aggregate over the whole column with
// the predicated kernel.
func (c *Column) Sum(lo, hi int64) Result {
	return SumRange(c.values, lo, hi)
}

// within is the kernels' match, 1 iff lo <= v <= lo+span, by one unsigned
// compare: a v below lo wraps to the top half of the unsigned range, which
// no span inside MaxMagnitude reaches. The constant under the condition
// compiles to SETBE, not a jump. Callers rule out lo > hi first: that
// span would wrap and match nearly everything.
func within(v, lo int64, span uint64) int64 {
	if uint64(v-lo) <= span {
		return 1
	}
	return 0
}

// SumRange computes SUM and COUNT of values v with lo <= v <= hi using
// a branch-free kernel: per element it derives a 0/1 match (within) and
// accumulates sum += v & -match. This is the Go rendering of the
// predication technique the paper relies on for robust,
// selectivity-independent scan cost. Where the CPU has AVX2 the rows up
// to the last multiple of 8 take the vector form of the same test
// (sumRangeAVX2), and the rest SumRangeScalar.
func SumRange(values []int64, lo, hi int64) Result {
	if lo > hi {
		return Result{}
	}
	var r Result
	if n := len(values) &^ 7; vector && n > 0 {
		sum, miss := sumRangeAVX2(values[:n], lo, uint64(hi-lo))
		r, values = Result{Sum: sum, Count: int64(n) - miss}, values[n:]
	}
	t := SumRangeScalar(values, lo, hi)
	return Result{Sum: r.Sum + t.Sum, Count: r.Count + t.Count}
}

// SumRangeScalar is SumRange's Go loop alone: what every CPU without
// AVX2 runs, the vector kernel's reference in the tests and the scalar
// rung of the kernel ablation benchmark.
func SumRangeScalar(values []int64, lo, hi int64) Result {
	if lo > hi {
		return Result{}
	}
	span := uint64(hi - lo)
	var sum, count int64
	for _, v := range values {
		m := within(v, lo, span)
		sum += v & -m
		count += m
	}
	return Result{Sum: sum, Count: count}
}

// SumRangeBranching is the naive branching kernel. It exists for the
// kernel ablation benchmark (DESIGN.md section 5) and as a correctness
// oracle for SumRange in property tests; index code never calls it.
func SumRangeBranching(values []int64, lo, hi int64) Result {
	var sum, count int64
	for _, v := range values {
		if v >= lo && v <= hi {
			sum += v
			count++
		}
	}
	return Result{Sum: sum, Count: count}
}

// AggRange computes the requested aggregates over values v with
// lo <= v <= hi in one pass. The match decision is branch-free exactly
// like SumRange, so the paper's selectivity-independence holds for every
// aggregate combination; extrema tracking uses mask-selected candidates
// and conditional moves, never a data-dependent branch on the match.
func AggRange(values []int64, lo, hi int64, aggs Aggregates) Agg {
	a := NewAgg()
	if !aggs.NeedsMinMax() {
		// SUM/COUNT-only fast path: identical code to the v1 kernel.
		r := SumRange(values, lo, hi)
		a.Sum, a.Count = r.Sum, r.Count
		return a
	}
	if lo > hi {
		return a
	}
	span := uint64(hi - lo)
	var sum, count int64
	mn, mx := a.Min, a.Max
	for _, v := range values {
		mask := -within(v, lo, span)
		sum += v & mask
		count -= mask
		locand := (v & mask) | (mn &^ mask) // v when matching, else mn
		if locand < mn {
			mn = locand
		}
		hicand := (v & mask) | (mx &^ mask)
		if hicand > mx {
			mx = hicand
		}
	}
	a.Sum, a.Count, a.Min, a.Max = sum, count, mn, mx
	return a
}

// AggRangeBranching is the naive branching multi-aggregate kernel: the
// correctness oracle for AggRange and every Execute implementation in
// the property tests. Index code never calls it.
func AggRangeBranching(values []int64, lo, hi int64) Agg {
	a := NewAgg()
	for _, v := range values {
		if v >= lo && v <= hi {
			a.Sum += v
			a.Count++
			if v < a.Min {
				a.Min = v
			}
			if v > a.Max {
				a.Max = v
			}
		}
	}
	return a
}

// AggSorted computes the requested aggregates over a fully sorted slice.
// The matching run is found by binary search; COUNT, MIN and MAX then
// cost O(1), and the O(matches) pass is paid only when a SUM (or AVG)
// was requested: SumRange's, whose bounds the run's own extrema make
// match every row.
func AggSorted(sorted []int64, lo, hi int64, aggs Aggregates) Agg {
	a := NewAgg()
	i := lowerBound(sorted, lo)
	j := upperBound(sorted, hi)
	if i >= j {
		return a
	}
	a.Count = int64(j - i)
	a.Min = sorted[i]
	a.Max = sorted[j-1]
	if aggs.NeedsSum() {
		// Every row of the run lies between its first and its last.
		a.Sum = SumRange(sorted[i:j], a.Min, a.Max).Sum
	}
	return a
}

// lowerBound returns the first index i with sorted[i] >= v.
func lowerBound(sorted []int64, v int64) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index i with sorted[i] > v.
func upperBound(sorted []int64, v int64) int {
	if v == math.MaxInt64 {
		return len(sorted)
	}
	return lowerBound(sorted, v+1)
}

// LowerBound exposes lowerBound for other packages (B+-tree tests,
// harness verification).
func LowerBound(sorted []int64, v int64) int { return lowerBound(sorted, v) }

// UpperBound exposes upperBound.
func UpperBound(sorted []int64, v int64) int { return upperBound(sorted, v) }
