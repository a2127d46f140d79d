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
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/cracking"
	"repro/internal/imprints"
	"repro/internal/phash"
	"repro/internal/query"
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

// Strategy selects an indexing technique.
type Strategy int

// Available strategies: the four progressive algorithms of the paper,
// the adaptive-indexing baselines, and the two reference points.
const (
	StrategyQuicksort Strategy = iota
	StrategyRadixMSD
	StrategyBucketsort
	StrategyRadixLSD
	StrategyFullScan
	StrategyFullIndex
	StrategyStandardCracking
	StrategyStochasticCracking
	StrategyProgressiveStochastic
	StrategyCoarseGranular
	StrategyAdaptiveAdaptive
	// StrategyProgressiveHash and StrategyImprints implement the two
	// "Indexing Methods" extensions of the paper's future-work section
	// (§6): a progressively filled hash table that accelerates point
	// queries, and progressively built column imprints, a secondary
	// index that never reorders the column.
	StrategyProgressiveHash
	StrategyImprints
)

// strategies is the one place that lists the strategies, a row each,
// indexed by Strategy: the paper's abbreviation (what String prints and
// ParseStrategy reads) and its constructor — progressive for the four
// progressive algorithms, the only strategies a table serves, build for
// the nine the comparison figures build unsharded.
var strategies = [...]struct {
	name        string
	progressive func(*column.Column, Options) query.Budgeted
	build       func(*column.Column, Options) Index
}{
	StrategyQuicksort:             {"PQ", fromCore(core.NewQuicksort), nil},
	StrategyRadixMSD:              {"PMSD", fromCore(core.NewRadixMSD), nil},
	StrategyBucketsort:            {"PB", fromCore(core.NewBucketsort), nil},
	StrategyRadixLSD:              {"PLSD", fromCore(core.NewRadixLSD), nil},
	StrategyFullScan:              {"FS", nil, func(c *column.Column, o Options) Index { return baseline.NewFullScanWorkers(c, o.Workers) }},
	StrategyFullIndex:             {"FI", nil, func(c *column.Column, o Options) Index { return baseline.NewFullIndex(c, o.Fanout) }},
	StrategyStandardCracking:      {"STD", nil, fromCracking(cracking.NewStandard)},
	StrategyStochasticCracking:    {"STC", nil, fromCracking(cracking.NewStochastic)},
	StrategyProgressiveStochastic: {"PSTC", nil, fromCracking(cracking.NewProgressiveStochastic)},
	StrategyCoarseGranular:        {"CGI", nil, fromCracking(cracking.NewCoarseGranular)},
	StrategyAdaptiveAdaptive:      {"AA", nil, fromCracking(cracking.NewAdaptiveAdaptive)},
	StrategyProgressiveHash:       {"PHASH", nil, func(c *column.Column, o Options) Index { return phash.New(c, o.Delta) }},
	StrategyImprints:              {"PIMP", nil, func(c *column.Column, o Options) Index { return imprints.New(c, o.Delta) }},
}

// fromCore and fromCracking adapt a constructor of internal/core and of
// internal/cracking to a row of strategies.
func fromCore[T query.Budgeted](build func(*column.Column, core.Config) T) func(*column.Column, Options) query.Budgeted {
	return func(c *column.Column, o Options) query.Budgeted { return build(c, coreConfig(o)) }
}

func fromCracking[T Index](build func(*column.Column, cracking.Config) T) func(*column.Column, Options) Index {
	return func(c *column.Column, o Options) Index {
		return build(c, cracking.Config{Seed: o.Seed, Workers: o.Workers})
	}
}

// Strategies returns every strategy, in declaration order.
func Strategies() []Strategy {
	all := make([]Strategy, len(strategies))
	for i := range all {
		all[i] = Strategy(i)
	}
	return all
}

func (s Strategy) known() bool { return s >= 0 && int(s) < len(strategies) }

// String implements fmt.Stringer using the paper's abbreviations.
func (s Strategy) String() string {
	if !s.known() {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategies[s].name
}

// Progressive reports whether the strategy is one of the four
// progressive algorithms (the paper's contribution), the only strategies
// a table (NewHandle) serves.
func (s Strategy) Progressive() bool { return s.known() && strategies[s].progressive != nil }

// ParseStrategy resolves a strategy from its paper abbreviation as
// printed by Strategy.String, case-insensitively. The empty string
// resolves to the default Progressive Quicksort — convenient for wire
// formats where the field is optional.
func ParseStrategy(name string) (Strategy, error) {
	upper := strings.ToUpper(strings.TrimSpace(name))
	if upper == "" {
		return StrategyQuicksort, nil
	}
	for s, row := range strategies {
		if row.name == upper {
			return Strategy(s), nil
		}
	}
	return 0, fmt.Errorf("progidx: unknown strategy %q", name)
}

// Options configures New. The zero value builds a Progressive Quicksort
// with a fixed δ of 0.25 and default cost constants.
type Options struct {
	// Strategy selects the algorithm (default Progressive Quicksort).
	Strategy Strategy

	// Delta fixes the fraction of the data indexed per query. Used when
	// Budget is zero. Default 0.25.
	Delta float64
	// Budget is the per-query indexing time budget. When set it
	// overrides Delta: with Adaptive false it is translated into a
	// fixed δ on the first query; with Adaptive true δ is re-derived
	// every query so total query time stays at t_scan + Budget until
	// convergence.
	Budget time.Duration
	// Adaptive selects the adaptive budget flavor (see Budget).
	Adaptive bool

	// Calibrate measures the cost-model constants on this machine at
	// construction time instead of using built-in defaults. Budgets in
	// wall-clock time are only meaningful with calibration on.
	Calibrate bool

	// RadixBits sets the bucket count (1<<RadixBits) for the radix and
	// bucket sorts; BlockSize the bucket block size; Fanout the B+-tree
	// fanout; L1Elements the sort-outright threshold. Zero means the
	// paper's defaults (6, 1024, 64, 4096).
	RadixBits  int
	BlockSize  int
	Fanout     int
	L1Elements int

	// Workers sizes the parallel execution engine: the chunked
	// scan/aggregate kernels and the creation-phase partition/bucketize
	// passes run across this many workers. 0 means GOMAXPROCS; 1 forces
	// the serial code paths, which are bit-for-bit the pre-parallel
	// behavior. Answers are identical for every value (partial
	// aggregates merge in deterministic chunk order); only wall-clock
	// time changes. The worker count used is reported in Stats.Workers.
	Workers int

	// Shards splits the column into this many contiguous row-range
	// partitions, each backed by its own index of the selected strategy
	// with a min/max zone map (see Sharded). 0 or 1 means unsharded:
	// NewHandle then builds a table of one shard and New the bare
	// strategy. With Shards > 1 or a compressed Encoding, New too returns
	// a *Sharded, which is safe for concurrent use as-is.
	Shards int

	// Encoding selects compressed columnar storage (see Encoding). With
	// a compressed mode the table's shards — one when unsharded — are
	// born cold, scanned in place over the packed words, and
	// decompressed into the selected strategy only when the workload's
	// heat claims them (ClaimHeat). The zero value (EncodingRaw) is
	// exactly the uncompressed behavior.
	Encoding Encoding

	// ClaimHeat is the per-shard heat at which a cold compressed shard
	// is claimed: decoded and handed to the progressive strategy. 0
	// means the shard layer's default; negative means never claim
	// (shards stay compressed for life). Ignored unless Encoding is
	// compressed. A multi-column table's columns are sharded tables of
	// their own and claim the same way: a compressed column's shard has
	// no index until this many single-column queries on the column have
	// been answered from its packed blocks.
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
	return NewFromColumn(col, opts)
}

// NewFromColumn is New for a pre-built column (shared across several
// indexes in the benchmarks, avoiding repeated min/max passes).
func NewFromColumn(col *column.Column, opts Options) (Index, error) {
	if opts.Shards > 1 || opts.Encoding.Compressed() {
		// Compressed tables always live in the shard layer (one shard when
		// unsharded): it owns the cold-scan, claim and seal-time-encode
		// machinery.
		return NewShardedFromColumn(col, opts)
	}
	if !opts.Strategy.known() {
		return nil, fmt.Errorf("progidx: unknown strategy %v", opts.Strategy)
	}
	row := strategies[opts.Strategy]
	if row.build != nil {
		return row.build(col, opts), nil
	}
	return row.progressive(col, opts), nil
}

// coreConfig is the progressive algorithms' configuration opts selects.
func coreConfig(opts Options) core.Config {
	ccfg := core.Config{
		Delta:      opts.Delta,
		RadixBits:  opts.RadixBits,
		BlockSize:  opts.BlockSize,
		Fanout:     opts.Fanout,
		L1Elements: opts.L1Elements,
		Workers:    opts.Workers,
		Params:     costParams(opts),
	}
	switch {
	case opts.Budget > 0 && opts.Adaptive:
		ccfg.Mode = core.AdaptiveTime
		ccfg.BudgetSeconds = opts.Budget.Seconds()
	case opts.Budget > 0:
		ccfg.Mode = core.FixedTime
		ccfg.BudgetSeconds = opts.Budget.Seconds()
	default:
		ccfg.Mode = core.FixedDelta
	}
	return ccfg
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

// Conformance, in one place: every strategy and Sharded implement the
// one Index contract; the four progressive algorithms — through core's
// lifecycle driver — the hash table and the imprints its extension.
var (
	_ = []Index{
		(*core.Quicksort)(nil), (*core.RadixMSD)(nil), (*core.Bucketsort)(nil), (*core.RadixLSD)(nil),
		(*baseline.FullScan)(nil), (*baseline.FullIndex)(nil),
		(*cracking.Standard)(nil), (*cracking.Stochastic)(nil), (*cracking.ProgressiveStochastic)(nil),
		(*cracking.CoarseGranular)(nil), (*cracking.AdaptiveAdaptive)(nil),
		(*phash.Index)(nil), (*imprints.Index)(nil),
		(*Sharded)(nil),
	}
	_ = []query.Budgeted{
		(*core.Quicksort)(nil), (*core.RadixMSD)(nil), (*core.Bucketsort)(nil), (*core.RadixLSD)(nil),
		(*phash.Index)(nil), (*imprints.Index)(nil),
	}
)
