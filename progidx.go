// Package progidx is a Go implementation of Progressive Indexing
// (Holanda, Raasveldt, Manegold, Mühleisen: "Progressive Indexes:
// Indexing for Interactive Data Analysis", PVLDB 12(13), 2019).
//
// A progressive index answers every query exactly while spending a
// small, controllable budget of extra work per query on building the
// index. After enough queries it converges to a full B+-tree; before
// that, each query is answered from the partial index plus whatever
// part of the data is not indexed yet. Four algorithms are provided —
// Progressive Quicksort, Progressive Radixsort (MSD), Progressive
// Bucketsort (equi-height) and Progressive Radixsort (LSD) — plus the
// adaptive-indexing baselines the paper compares against (database
// cracking variants) and the Full Scan / Full Index reference points.
//
// Quick start:
//
//	idx, err := progidx.New(values, progidx.Options{
//	    Strategy: progidx.StrategyRadixMSD,
//	    Budget:   2 * time.Millisecond, // extra indexing time per query
//	    Adaptive: true,                 // keep total query time constant
//	})
//	ans, err := idx.Execute(progidx.Request{
//	    Pred: progidx.Range(lo, hi),            // or Point, AtLeast, AtMost
//	    Aggs: progidx.Sum | progidx.Avg,        // any aggregate combination
//	})
//	// ans.Sum, ans.Avg, ans.Count — plus ans.Stats describing the
//	// indexing work this call performed (phase, δ, predicted cost).
//
// Every Execute call answers the predicate exactly with the requested
// aggregates (SUM, COUNT, MIN, MAX, AVG, combinable as a bitmask) and
// may reorganize the index internally; the per-query work Stats travel
// inline in the Answer, so there is no stateful side channel and
// concurrent callers (see NewHandle) always observe coherent
// (answer, stats) pairs.
//
// The zero Aggs computes SUM and COUNT, the paper's SELECT SUM(A) WHERE A
// BETWEEN lo AND hi workload.
//
// Use Recommend to pick a strategy via the paper's Figure 11 decision
// tree.
package progidx

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/cracking"
	"repro/internal/imprints"
	"repro/internal/phash"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
)

// Result is the SUM and COUNT of the matching values, as projected by
// Answer.Result.
type Result = column.Result

// Request is one query: a predicate plus the set of aggregates to
// compute over the matching rows. The zero Aggs defaults to SUM+COUNT.
type Request = query.Request

// Answer is the response to a Request: the requested aggregate values
// plus the per-query work Stats, inline.
type Answer = query.Answer

// Predicate describes which rows a Request touches. Construct with
// Range, Point, AtLeast or AtMost.
type Predicate = query.Predicate

// Range matches lo <= v <= hi, both inclusive (the paper's BETWEEN
// workload). An inverted range is a valid, empty predicate.
func Range(lo, hi int64) Predicate { return query.Range(lo, hi) }

// Point matches v exactly. Strategies with point fast paths
// (StrategyProgressiveHash, StrategyRadixLSD) answer it without
// degenerating to a [v, v] range scan.
func Point(v int64) Predicate { return query.Point(v) }

// AtLeast matches every value >= v (open-ended upper bound).
func AtLeast(v int64) Predicate { return query.AtLeast(v) }

// AtMost matches every value <= v (open-ended lower bound).
func AtMost(v int64) Predicate { return query.AtMost(v) }

// Conjunction is one composite query against a multi-column table:
// per-column predicates ANDed together, aggregating the Target
// column's matching values. See internal/query.Conjunction.
type Conjunction = query.Conjunction

// ColPredicate binds a Predicate to a named column of a multi-column
// table.
type ColPredicate = query.ColPredicate

// Conj builds a conjunction over preds aggregating target.
func Conj(target string, aggs Aggregates, preds ...ColPredicate) Conjunction {
	return query.Conj(target, aggs, preds...)
}

// On binds a predicate to a column, for building conjunctions inline.
func On(col string, p Predicate) ColPredicate { return query.On(col, p) }

// Aggregates is a bitmask of aggregate functions a Request computes.
type Aggregates = column.Aggregates

// Aggregate functions, combinable as a bitmask (e.g. Sum|Min|Max).
const (
	Sum   = column.AggSum
	Count = column.AggCount
	Min   = column.AggMin
	Max   = column.AggMax
	Avg   = column.AggAvg

	// AllAggregates requests every aggregate.
	AllAggregates = column.AggAll
)

// Stats describes the work a progressive index performed on one query
// (phase, δ, cost-model prediction). It travels inline in Answer.
type Stats = core.Stats

// Phase is a progressive index's lifecycle phase.
type Phase = core.Phase

// Re-exported lifecycle phases.
const (
	PhaseCreation      = core.PhaseCreation
	PhaseRefinement    = core.PhaseRefinement
	PhaseConsolidation = core.PhaseConsolidation
	PhaseDone          = core.PhaseDone
)

// Index is the behaviour shared by every index in this module — the one
// contract declared in internal/query: Name, an exact Execute that may
// spend budgeted work refining the index as a side effect, and a
// terminal Converged state. The layers that drive an index hold its one
// extension, query.Budgeted (the call's budget share as arguments,
// Progress, Phase, ReleaseBase); callers rarely need it.
type Index = query.Index

// Strategy selects an indexing technique (see internal/plan, which
// names the thirteen and builds the four a table serves).
type Strategy = plan.Strategy

// Available strategies: the four progressive algorithms of the paper,
// the adaptive-indexing baselines, and the two reference points.
const (
	StrategyQuicksort             = plan.StrategyQuicksort
	StrategyRadixMSD              = plan.StrategyRadixMSD
	StrategyBucketsort            = plan.StrategyBucketsort
	StrategyRadixLSD              = plan.StrategyRadixLSD
	StrategyFullScan              = plan.StrategyFullScan
	StrategyFullIndex             = plan.StrategyFullIndex
	StrategyStandardCracking      = plan.StrategyStandardCracking
	StrategyStochasticCracking    = plan.StrategyStochasticCracking
	StrategyProgressiveStochastic = plan.StrategyProgressiveStochastic
	StrategyCoarseGranular        = plan.StrategyCoarseGranular
	StrategyAdaptiveAdaptive      = plan.StrategyAdaptiveAdaptive
	StrategyProgressiveHash       = plan.StrategyProgressiveHash
	StrategyImprints              = plan.StrategyImprints
)

// baselines constructs the nine strategies a table does not serve,
// indexed by Strategy: the comparison figures build them unsharded.
var baselines = [...]func(*column.Column, Options) Index{
	StrategyFullScan:              func(c *column.Column, o Options) Index { return baseline.NewFullScanWorkers(c, o.Workers) },
	StrategyFullIndex:             func(c *column.Column, o Options) Index { return baseline.NewFullIndex(c, 0) },
	StrategyStandardCracking:      fromCracking(cracking.NewStandard),
	StrategyStochasticCracking:    fromCracking(cracking.NewStochastic),
	StrategyProgressiveStochastic: fromCracking(cracking.NewProgressiveStochastic),
	StrategyCoarseGranular:        fromCracking(cracking.NewCoarseGranular),
	StrategyAdaptiveAdaptive:      fromCracking(cracking.NewAdaptiveAdaptive),
	StrategyProgressiveHash:       func(c *column.Column, o Options) Index { return phash.New(c, o.Delta) },
	StrategyImprints:              func(c *column.Column, o Options) Index { return imprints.New(c, o.Delta) },
}

// fromCracking adapts a constructor of internal/cracking to a row of
// baselines.
func fromCracking[T Index](build func(*column.Column, cracking.Config) T) func(*column.Column, Options) Index {
	return func(c *column.Column, o Options) Index {
		return build(c, cracking.Config{Seed: o.Seed, Workers: o.Workers})
	}
}

// Strategies returns every strategy, in declaration order: baselines
// has a row for each.
func Strategies() []Strategy {
	all := make([]Strategy, len(baselines))
	for i := range all {
		all[i] = Strategy(i)
	}
	return all
}

// ParseStrategy resolves a strategy from its paper abbreviation as
// printed by Strategy.String, case-insensitively; the empty string is
// Progressive Quicksort.
func ParseStrategy(name string) (Strategy, error) { return plan.ParseStrategy(name) }

// Options configures New. The zero value builds a Progressive Quicksort
// with a fixed δ of 0.25 and default cost constants.
type Options struct {
	// Strategy selects the algorithm (default Progressive Quicksort).
	Strategy Strategy

	// Delta, Budget, Adaptive, Workers, Shards, Encoding and ClaimHeat
	// have the plan.Options meanings. With Shards > 1 or a compressed
	// Encoding, New returns the concurrency-safe table NewHandle builds.
	Delta    float64
	Budget   time.Duration
	Adaptive bool

	// Calibrate measures the cost-model constants on this machine at
	// construction time instead of using built-in defaults. Budgets in
	// wall-clock time are only meaningful with calibration on.
	Calibrate bool

	Workers   int
	Shards    int
	Encoding  Encoding
	ClaimHeat int

	// Seed drives the stochastic cracking baselines.
	Seed int64
}

// New builds an index of the selected strategy over values. The slice
// is retained as the base column and must not be mutated afterwards;
// progressive strategies copy out of it as they index, exactly like the
// paper's creation phases.
func New(values []int64, opts Options) (Index, error) {
	col, err := column.New(values)
	if err != nil {
		return nil, err
	}
	switch {
	case opts.Shards > 1 || opts.Encoding.Compressed():
		// Compressed tables always live in the shard layer (one shard when
		// unsharded): it owns the cold-scan, claim and seal-time-encode
		// machinery.
		return plan.NewColumn(col, opts.served())
	case opts.Strategy.Progressive():
		// Unsharded, the index is the one a table's shard would hold.
		_, factory := plan.Layout(opts.served(), col.Len())
		return factory(col), nil
	case opts.Strategy >= 0 && int(opts.Strategy) < len(baselines):
		return baselines[opts.Strategy](col, opts), nil
	}
	return nil, fmt.Errorf("progidx: unknown strategy %v", opts.Strategy)
}

// served is the subset of opts a table is built with, its cost
// constants resolved.
func (o Options) served() plan.Options {
	return plan.Options{
		Strategy:  o.Strategy,
		Delta:     o.Delta,
		Budget:    o.Budget,
		Adaptive:  o.Adaptive,
		Workers:   o.Workers,
		Shards:    o.Shards,
		Encoding:  o.Encoding,
		ClaimHeat: o.ClaimHeat,
		Params:    costParams(o),
	}
}

// NewHandle builds a concurrency-safe table over one column of values:
// the *shard.Sharded a served table holds per column (plan.NewColumn,
// which says how it partitions, indexes, ingests and which strategies it
// serves), with the cost constants opts selects.
func NewHandle(values []int64, opts Options) (*shard.Sharded, error) {
	col, err := column.New(values)
	if err != nil {
		return nil, err
	}
	return plan.NewColumn(col, opts.served())
}

// MustNew is New that panics on error, for examples and tests with
// statically valid inputs.
func MustNew(values []int64, opts Options) Index {
	idx, err := New(values, opts)
	if err != nil {
		panic(err)
	}
	return idx
}

// Calibration is process-wide: constants measured once, reused by every
// index built with Options.Calibrate, mirroring the paper's
// measure-at-startup scheme.
var (
	calibrateOnce sync.Once
	calibrated    costmodel.Params
)

// costParams returns the cost constants opts selects: the machine's, or
// the zero value — the built-in defaults — without Options.Calibrate.
func costParams(opts Options) costmodel.Params {
	if !opts.Calibrate {
		return costmodel.Params{}
	}
	calibrateOnce.Do(func() { calibrated = core.CalibrateParams() })
	return calibrated
}

// Conformance, in one place: every strategy and shard.Sharded implement the
// one Index contract; the four progressive algorithms — through core's
// lifecycle driver — the hash table and the imprints its extension.
var (
	_ = []Index{
		(*core.Quicksort)(nil), (*core.RadixMSD)(nil), (*core.Bucketsort)(nil), (*core.RadixLSD)(nil),
		(*baseline.FullScan)(nil), (*baseline.FullIndex)(nil),
		(*cracking.Standard)(nil), (*cracking.Stochastic)(nil), (*cracking.ProgressiveStochastic)(nil),
		(*cracking.CoarseGranular)(nil), (*cracking.AdaptiveAdaptive)(nil),
		(*phash.Index)(nil), (*imprints.Index)(nil),
		(*shard.Sharded)(nil),
	}
	_ = []query.Budgeted{
		(*core.Quicksort)(nil), (*core.RadixMSD)(nil), (*core.Bucketsort)(nil), (*core.RadixLSD)(nil),
		(*phash.Index)(nil), (*imprints.Index)(nil),
	}
)
