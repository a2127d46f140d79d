// Package query defines the request/response vocabulary shared by
// every index in this repository — a Predicate describing which rows
// qualify, a Request pairing it with the set of aggregates to compute,
// and an Answer carrying the aggregate values together with the
// per-query work Stats inline — and the one Index contract every index
// implements, with the one extension of it, Budgeted, that the layers
// driving an index hold.
//
// The types live below core so that all index packages (core,
// cracking, baseline, phash, imprints), the shard layer and the root
// package can share Execute(Request) (Answer, error) without import
// cycles, and so that new predicate or aggregate kinds are added as
// data in one place rather than as methods on every index.
package query

import (
	"fmt"
	"math"

	"repro/internal/column"
	"repro/internal/obs"
)

// PredKind identifies the shape of a predicate.
type PredKind uint8

// Predicate kinds.
const (
	// PredRange matches lo <= v <= hi, both inclusive (the paper's
	// BETWEEN workload).
	PredRange PredKind = iota
	// PredPoint matches v == value exactly.
	PredPoint
	// PredAtLeast matches v >= value (open-ended upper bound).
	PredAtLeast
	// PredAtMost matches v <= value (open-ended lower bound).
	PredAtMost
)

// String implements fmt.Stringer.
func (k PredKind) String() string {
	switch k {
	case PredRange:
		return "range"
	case PredPoint:
		return "point"
	case PredAtLeast:
		return "at-least"
	case PredAtMost:
		return "at-most"
	default:
		return fmt.Sprintf("PredKind(%d)", int(k))
	}
}

// Predicate describes which rows a request touches. Lo and Hi always
// hold the effective inclusive bounds (open ends are stored as the
// int64 extremes), so Matches and Bounds work uniformly for every kind.
// Construct with Range, Point, AtLeast or AtMost.
type Predicate struct {
	Kind   PredKind
	Lo, Hi int64
}

// Range matches lo <= v <= hi inclusive. An inverted range (lo > hi)
// is a valid, empty predicate.
func Range(lo, hi int64) Predicate { return Predicate{Kind: PredRange, Lo: lo, Hi: hi} }

// Point matches v exactly.
func Point(v int64) Predicate { return Predicate{Kind: PredPoint, Lo: v, Hi: v} }

// AtLeast matches every value >= v.
func AtLeast(v int64) Predicate { return Predicate{Kind: PredAtLeast, Lo: v, Hi: math.MaxInt64} }

// AtMost matches every value <= v.
func AtMost(v int64) Predicate { return Predicate{Kind: PredAtMost, Lo: math.MinInt64, Hi: v} }

// Matches reports whether v satisfies the predicate.
func (p Predicate) Matches(v int64) bool { return v >= p.Lo && v <= p.Hi }

// IsPoint reports whether the predicate selects exactly one value —
// either PredPoint or a degenerate range. Indexes with point fast paths
// (progressive hash, radix LSD buckets) key off this.
func (p Predicate) IsPoint() bool { return p.Lo == p.Hi }

// Bounds clamps the predicate to a column's value domain [min, max] and
// reports whether it can match anything at all. The clamped bounds are
// what the branch-free kernels receive: every value scanned lies in
// [min, max], so the subtractions (v-lo) and (hi-v) cannot overflow
// even when the request used the int64 extremes as open ends.
func (p Predicate) Bounds(min, max int64) (lo, hi int64, empty bool) {
	lo, hi = p.Lo, p.Hi
	if lo > hi || hi < min || lo > max {
		return 0, 0, true
	}
	if lo < min {
		lo = min
	}
	if hi > max {
		hi = max
	}
	return lo, hi, false
}

// Validate reports a malformed predicate (unknown kind). Inverted
// ranges are deliberately valid: they are empty, not erroneous.
func (p Predicate) Validate() error {
	if p.Kind > PredAtMost {
		return fmt.Errorf("query: unknown predicate kind %v", p.Kind)
	}
	return nil
}

// String implements fmt.Stringer.
func (p Predicate) String() string {
	switch p.Kind {
	case PredPoint:
		return fmt.Sprintf("v = %d", p.Lo)
	case PredAtLeast:
		return fmt.Sprintf("v >= %d", p.Lo)
	case PredAtMost:
		return fmt.Sprintf("v <= %d", p.Hi)
	default:
		return fmt.Sprintf("%d <= v <= %d", p.Lo, p.Hi)
	}
}

// Request is one query: a predicate plus the set of aggregates to
// compute over the matching rows. The zero Aggs defaults to SUM+COUNT,
// the paper's workload.
type Request struct {
	Pred Predicate
	Aggs column.Aggregates
}

// Validate reports a malformed request.
func (r Request) Validate() error {
	if err := r.Pred.Validate(); err != nil {
		return err
	}
	if !r.Aggs.Valid() {
		return fmt.Errorf("query: unknown aggregate bits in %s", r.Aggs)
	}
	return nil
}

// BatchOpts says how a table executes one batch of queries: its one
// batch entry point takes it, so tracing and deadline clamping compose
// instead of each selecting its own variant. The zero value is a plain
// batch: untraced, the first query carrying the batch's indexing
// budget.
type BatchOpts struct {
	// Traces aligns positionally with the batch's requests: a non-nil
	// entry receives that request's span tree under its attach point
	// (DESIGN.md section 13). Nil entries, and a nil or short slice,
	// leave those requests untraced at the cost of a pointer test.
	Traces []*obs.Trace
	// Clamp withholds the indexing budget from the whole batch: every
	// request, the first included, runs with refinement suspended, and
	// nothing is claimed or refined on the batch's account. The scheduler
	// sets it when no query's deadline can absorb an indexing slice;
	// answers are exact either way.
	Clamp bool
}

// Trace returns the trace of the batch's i-th request, nil when that
// request is untraced.
func (o BatchOpts) Trace(i int) *obs.Trace {
	if i < len(o.Traces) {
		return o.Traces[i]
	}
	return nil
}

// Phase is a progressive index's lifecycle phase.
type Phase int

// Lifecycle phases, in order.
const (
	PhaseCreation Phase = iota
	PhaseRefinement
	PhaseConsolidation
	PhaseDone
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseCreation:
		return "creation"
	case PhaseRefinement:
		return "refinement"
	case PhaseConsolidation:
		return "consolidation"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Stats reports what a single Execute call did, for the harness and the
// cost-model validation experiments (Figures 8 and 9). The baselines
// (unsharded only) leave the work fields zero and report only Workers —
// and, the full index, the leaves its B+-tree read as AlphaElems. Their
// Phase stays zero, which reads as creation
// (TestProgressiveInterfaceUpgrade pins it).
type Stats struct {
	// Phase the index was in when the query started.
	Phase Phase
	// Delta is the fraction of a full indexing pass performed.
	Delta float64
	// WorkSeconds is the cost-model value of the indexing work done.
	WorkSeconds float64
	// BaseSeconds is the cost-model prediction for answering the query
	// from the current index state, without any indexing work.
	BaseSeconds float64
	// Predicted is the cost-model prediction for the whole call:
	// BaseSeconds + WorkSeconds.
	Predicted float64
	// AlphaElems is how many index-resident elements the answer
	// scanned (the α of Table 1, in elements). From a converged index
	// that is the leaves a SUM read beside the B+-tree's prefix sums,
	// fewer than two nodes' worth, and none for COUNT, MIN or MAX.
	AlphaElems int
	// Workers is the parallel worker count the index's scan kernels
	// were sized for on this call (1 = serial execution).
	Workers int
	// ShardsScanned and ShardsPruned report the shard fan-out for
	// this call: how many shards survived zone-map pruning and were
	// scanned, and how many the zone maps excluded outright. Both are
	// zero for unsharded indexes.
	ShardsScanned int
	ShardsPruned  int
}

// Index is the one contract every index in this repository implements —
// every strategy, the shard layer's Sharded and the served
// plan.Table: a name, an exact Execute that may spend
// budgeted indexing work as a side effect, and a terminal Converged
// state. The root package aliases it as progidx.Index.
type Index interface {
	// Name returns the strategy's short name (the paper's abbreviation).
	Name() string
	// Execute answers the request's predicate with the requested
	// aggregates; the returned Answer carries the per-query work Stats
	// inline.
	Execute(req Request) (Answer, error)
	// Converged reports whether the index has reached its final state;
	// once true it stays true and Execute no longer mutates the index.
	Converged() bool
}

// Budgeted is an Index with its whole lifecycle, as the layers that drive
// one hold it (the shard layer's factory returns it): the indexing quantum
// of a call is an argument of that call, not state set before it and
// unset after. Core's lifecycle driver, which the four progressive
// algorithms share, is its one implementation outside tests; the shard
// layer holds only those four. None of it is safe for concurrent use
// with Execute; callers serialize access (the shard layer does, under
// the shard's lock).
type Budgeted interface {
	Index
	// ExecuteSlice is Execute with the call's share of the indexing
	// budget: the planned indexing work is multiplied by scale (positive;
	// the shard router splits one query's budget across surviving shards
	// in proportion to their heat), and with suspend set the call answers
	// exactly but plans no indexing work, so a batch pays one indexing
	// budget instead of one per request. Execute(req) is
	// ExecuteSlice(req, 1, false).
	ExecuteSlice(req Request, scale float64, suspend bool) (Answer, error)
	// Progress reports the approximate fraction of total indexing work
	// completed, in [0, 1]; exactly 1 once Converged.
	Progress() float64
	// Phase reports the lifecycle phase.
	Phase() Phase
	// ReleaseBase is called once the index has converged. The index
	// answers from its own sorted copy alone from then on, so it drops
	// its reference to the rows of the column it was built over (its
	// zone stays) and reports true, so that whoever holds those rows may
	// keep them in another form, or not at all. Before convergence it
	// reports false.
	ReleaseBase() bool
}

// Answer is the response to a Request: the requested aggregate values
// plus the per-query work stats, inline — there is no stateful side
// channel. Aggs records the normalized set that was computed; Count is
// always populated, Min/Max/Avg only when requested and at least one
// row matched (check Count, or use the Ok accessors).
type Answer struct {
	Aggs  column.Aggregates
	Sum   int64
	Count int64
	Min   int64
	Max   int64
	Avg   float64
	Stats Stats
}

// NewAnswer projects an accumulator into the response shape for the
// normalized aggregate set.
func NewAnswer(a column.Agg, aggs column.Aggregates, stats Stats) Answer {
	ans := Answer{Aggs: aggs, Count: a.Count, Stats: stats}
	if aggs.Has(column.AggSum) {
		ans.Sum = a.Sum
	}
	if a.Count > 0 {
		if aggs.Has(column.AggMin) {
			ans.Min = a.Min
		}
		if aggs.Has(column.AggMax) {
			ans.Max = a.Max
		}
		if aggs.Has(column.AggAvg) {
			ans.Avg = float64(a.Sum) / float64(a.Count)
		}
	}
	return ans
}

// AnswerAgg reconstructs the kernel accumulator from an answer so
// partial answers merge exactly: an empty answer contributes the ±inf
// extrema sentinels, never a fake zero. It is the inverse of NewAnswer
// for the fields the answer's aggregate set actually carries, used
// wherever sub-answers combine (shard fan-out, pending-tail merge).
func AnswerAgg(ans Answer) column.Agg {
	agg := column.NewAgg()
	agg.Sum, agg.Count = ans.Sum, ans.Count
	if ans.Count > 0 && ans.Aggs.NeedsMinMax() {
		agg.Min, agg.Max = ans.Min, ans.Max
	}
	return agg
}

// MinOk returns the minimum and whether it is meaningful (requested and
// at least one row matched).
func (a Answer) MinOk() (int64, bool) {
	return a.Min, a.Aggs.Has(column.AggMin) && a.Count > 0
}

// MaxOk returns the maximum and whether it is meaningful.
func (a Answer) MaxOk() (int64, bool) {
	return a.Max, a.Aggs.Has(column.AggMax) && a.Count > 0
}

// AvgOk returns the mean and whether it is meaningful.
func (a Answer) AvgOk() (float64, bool) {
	return a.Avg, a.Aggs.Has(column.AggAvg) && a.Count > 0
}

// Result projects the SUM/COUNT pair, the shape of the paper's
// workload and of the scan oracles. Like the Sum field it reads, the projected Sum is only meaningful
// when SUM (or AVG) was in the computed aggregate set — on a MIN/MAX
// only request the sorted-run kernels legitimately skip the summing
// pass, so Result would report 0. Check a.Aggs.Has(column.AggSum) when
// the request mask is not under your control.
func (a Answer) Result() column.Result {
	return column.Result{Sum: a.Sum, Count: a.Count}
}

// Prepare validates req against a column with domain [min, max] and
// resolves the concrete kernel inputs: clamped inclusive bounds and the
// normalized aggregate set. Predicates that cannot match anything are
// rewritten to the canonical in-domain empty range (min+1, min) so the
// index still performs its budgeted work and every downstream kernel
// sees safe, in-domain bounds; kernels with an answer fast path can
// detect the case as lo > hi.
func Prepare(req Request, min, max int64) (lo, hi int64, aggs column.Aggregates, err error) {
	if err := req.Validate(); err != nil {
		return 0, 0, 0, err
	}
	aggs = req.Aggs.Normalize()
	lo, hi, empty := req.Pred.Bounds(min, max)
	if empty {
		lo, hi = min+1, min
	}
	return lo, hi, aggs, nil
}

// Run is the shared Execute implementation every index wraps: it
// Prepares the request against the column domain, invokes the index's
// kernel with the clamped bounds and normalized aggregate set, and
// shapes the Answer. The kernel returns the per-call Stats alongside
// the accumulator (zero for non-progressive indexes), keeping the
// clamping/normalization contract in one place instead of thirteen.
func Run(req Request, min, max int64, kernel func(lo, hi int64, aggs column.Aggregates) (column.Agg, Stats)) (Answer, error) {
	lo, hi, aggs, err := Prepare(req, min, max)
	if err != nil {
		return Answer{}, err
	}
	agg, stats := kernel(lo, hi, aggs)
	return NewAnswer(agg, aggs, stats), nil
}
