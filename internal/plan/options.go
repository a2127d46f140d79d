package plan

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/encode"
	"repro/internal/query"
	"repro/internal/shard"
)

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

// strategyNames is the one place that names the strategies, indexed by
// Strategy: the paper's abbreviation, what String prints and
// ParseStrategy reads.
var strategyNames = [...]string{"PQ", "PMSD", "PB", "PLSD", "FS", "FI", "STD", "STC", "PSTC", "CGI", "AA", "PHASH", "PIMP"}

// progressive constructs the four progressive algorithms, the only
// strategies a table serves; the other nine exist for the paper's
// comparison figures, and the root package builds them unsharded.
var progressive = [...]func(*column.Column, core.Config) query.Budgeted{
	StrategyQuicksort:  func(c *column.Column, cfg core.Config) query.Budgeted { return core.NewQuicksort(c, cfg) },
	StrategyRadixMSD:   func(c *column.Column, cfg core.Config) query.Budgeted { return core.NewRadixMSD(c, cfg) },
	StrategyBucketsort: func(c *column.Column, cfg core.Config) query.Budgeted { return core.NewBucketsort(c, cfg) },
	StrategyRadixLSD:   func(c *column.Column, cfg core.Config) query.Budgeted { return core.NewRadixLSD(c, cfg) },
}

// String implements fmt.Stringer using the paper's abbreviations.
func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategyNames[s]
}

// Progressive reports whether the strategy is one of the four
// progressive algorithms (the paper's contribution), the only strategies
// a table serves.
func (s Strategy) Progressive() bool { return s >= 0 && int(s) < len(progressive) }

// ParseStrategy resolves a strategy from its paper abbreviation as
// printed by Strategy.String, case-insensitively. The empty string
// resolves to the default Progressive Quicksort — convenient for wire
// formats where the field is optional.
func ParseStrategy(name string) (Strategy, error) {
	upper := strings.ToUpper(strings.TrimSpace(name))
	if upper == "" {
		return StrategyQuicksort, nil
	}
	for s, n := range strategyNames {
		if n == upper {
			return Strategy(s), nil
		}
	}
	return 0, fmt.Errorf("progidx: unknown strategy %q", name)
}

// Options configures a served column: the table's strategy, budget,
// parallelism, partitioning and storage. The zero value is a
// Progressive Quicksort with a fixed δ of 0.25 and default cost
// constants, unsharded and raw.
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

	// Workers sizes the parallel execution engine: the chunked
	// scan/aggregate kernels and the creation-phase partition/bucketize
	// passes run across this many workers. 0 means GOMAXPROCS; 1 forces
	// the serial code paths, which are bit-for-bit the pre-parallel
	// behavior. Answers are identical for every value (partial
	// aggregates merge in deterministic chunk order); only wall-clock
	// time changes. The worker count used is reported in Stats.Workers.
	Workers int

	// Shards, Encoding and ClaimHeat configure the column's shards
	// (shard.Config): Shards < 2 is a table of one shard; a compressed
	// Encoding (DESIGN.md section 12) has them born cold, scanned in
	// place over the packed words, and decoded into the selected strategy
	// when a shard's heat reaches ClaimHeat. A multi-column table's
	// columns claim the same way: a compressed column's shard has no
	// index until this many single-column queries on the column have
	// been answered from its packed blocks.
	Shards    int
	Encoding  encode.Mode
	ClaimHeat int

	// Params are the cost-model constants the budget is planned with;
	// the zero value means the built-in defaults.
	Params costmodel.Params
}

// NewColumn builds a served column over col: a *shard.Sharded of the
// selected strategy, what every column of a Table is. The column holds
// the rows itself — raw shards slice col's array, appended rows go to
// the shard layer's own extents — so col must not be appended to
// afterwards (DESIGN.md section 9). With more than one shard,
// Options.Workers sizes the cross-shard fan-out and each shard's index
// runs serially, because the fan-out already uses the cores; a table of
// one shard has no fan-out, so its index keeps the workers.
//
// It is the one place a table refuses a strategy other than the four
// progressive algorithms: the other nine exist for the paper's
// comparison figures, which build them unsharded with progidx.New.
func NewColumn(col *column.Column, opts Options) (*shard.Sharded, error) {
	if !opts.Strategy.Progressive() {
		return nil, fmt.Errorf("progidx: a table serves only PQ, PMSD, PB and PLSD, not %v; the other strategies are built unsharded with progidx.New, as cmd/experiments does", opts.Strategy)
	}
	cfg, factory := Layout(opts, col.Len())
	return shard.New(col, cfg, factory)
}

// unshardedSealMinRows floors the seal threshold of a one-shard table:
// below it a tail scan is cheaper than indexing the rows, so the tail
// just rides along (idle time still seals it).
const unshardedSealMinRows = 1024

// Layout derives the shard layer's configuration for a column of rows
// rows, and the factory every shard's index is built with; the strategy
// is one of the four progressive algorithms.
func Layout(opts Options, rows int) (shard.Config, shard.Factory) {
	cfg := shard.Config{Shards: max(opts.Shards, 1), Workers: opts.Workers, Encoding: opts.Encoding, ClaimHeat: opts.ClaimHeat}
	child := opts
	if cfg.Shards > 1 {
		child.Workers = 1 // the shard fan-out is the parallelism
	} else {
		// One shard is the whole loaded table: sealing the tail at the
		// shard size would let the unindexed rows every query scans grow
		// to the size of the table. An eighth of it bounds that scan and
		// the re-indexing the seals cause alike.
		cfg.SealRows = max(rows/8, unshardedSealMinRows)
	}
	// Keep the wall-clock budget truthful: S shards of N/S rows each
	// must together spend what one index over N rows would, so each
	// shard's budgeter is sized at 1/S of the per-query time budget
	// (δ budgets are fractions of the shard's own data and need no
	// rescaling). The heat-weighted split then re-weights these equal
	// slices toward hot shards at query time, and BudgetSizedFor lets
	// the shard layer shrink the scales as sealed append-tails grow the
	// shard count past S — every sealed shard is built by the same
	// factory, so it carries the same 1/S budgeter slice.
	if child.Budget > 0 {
		cfg.BudgetSizedFor = cfg.Shards
		child.Budget /= time.Duration(cfg.Shards)
	}
	build, ccfg := progressive[opts.Strategy], coreConfig(child)
	return cfg, func(c *column.Column) query.Budgeted { return build(c, ccfg) }
}

// coreConfig is the progressive algorithms' configuration opts selects.
func coreConfig(opts Options) core.Config {
	ccfg := core.Config{Mode: core.FixedDelta, Delta: opts.Delta, Workers: opts.Workers, Params: opts.Params}
	if opts.Budget > 0 {
		ccfg.Mode, ccfg.BudgetSeconds = core.FixedTime, opts.Budget.Seconds()
		if opts.Adaptive {
			ccfg.Mode = core.AdaptiveTime
		}
	}
	return ccfg
}
