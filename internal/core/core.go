// Package core implements the paper's primary contribution: the four
// progressive indexing algorithms of Section 3 — Progressive Quicksort,
// Progressive Radixsort (MSD), Progressive Bucketsort (equi-height) and
// Progressive Radixsort (LSD) — together with the indexing-budget
// controller that drives them.
//
// Every algorithm progresses through the three canonical phases:
//
//	creation      — copy another δ·N elements of the base column into
//	                the index skeleton per query;
//	refinement    — order the skeleton progressively (in-place pivoting,
//	                recursive radix partitioning, or LSD passes);
//	consolidation — build a B+-tree over the sorted result.
//
// Every Execute call both answers the request exactly from the current
// index state and performs a budget-bounded amount of indexing work;
// work left over when a phase completes spills into the next phase
// within the same query, so phase transitions do not waste budget. That
// lifecycle is written once, in the progressive driver (lifecycle.go);
// the four algorithm files hold only their creation and refinement
// steps behind the unexported algorithm interface.
package core

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/parallel"
	"repro/internal/query"
)

// Phase identifies where an index is in its lifecycle. It is an alias
// of the query package's Phase so that Stats can travel inline in
// query.Answer without an import cycle.
type Phase = query.Phase

// Lifecycle phases, in order.
const (
	PhaseCreation      = query.PhaseCreation
	PhaseRefinement    = query.PhaseRefinement
	PhaseConsolidation = query.PhaseConsolidation
	PhaseDone          = query.PhaseDone
)

// BudgetMode selects how the per-query indexing budget is derived.
type BudgetMode int

const (
	// FixedDelta indexes a fixed fraction δ of the data per query
	// (the knob swept in Figure 7).
	FixedDelta BudgetMode = iota
	// FixedTime translates a per-query time budget into δ once, on the
	// first query, using the creation-phase cost model, and keeps that
	// δ for the remainder of the workload (Section 3, "fixed indexing
	// budget").
	FixedTime
	// AdaptiveTime re-derives δ on every query so that the total query
	// time stays at t_adaptive = t_scan + t_budget until convergence
	// (Section 3, "adaptive indexing budget").
	AdaptiveTime
)

// String implements fmt.Stringer.
func (m BudgetMode) String() string {
	switch m {
	case FixedDelta:
		return "fixed-delta"
	case FixedTime:
		return "fixed-time"
	case AdaptiveTime:
		return "adaptive"
	default:
		return fmt.Sprintf("BudgetMode(%d)", int(m))
	}
}

// Config carries the tunables shared by all four algorithms. The zero
// value is usable: it means fixed δ=0.25 with default cost constants.
type Config struct {
	// Mode selects the budget flavor. Delta is used by FixedDelta;
	// BudgetSeconds by FixedTime and AdaptiveTime.
	Mode          BudgetMode
	Delta         float64
	BudgetSeconds float64

	// Params are the cost-model constants. A zero Params means
	// costmodel.Default(); pass CalibrateParams() for hardware-true
	// budgets.
	Params costmodel.Params

	// RadixBits sets the bucket count b = 1<<RadixBits for the radix
	// and bucket sorts (paper: 6 bits, 64 buckets).
	RadixBits int
	// BlockSize is sb, elements per bucket block.
	BlockSize int
	// Fanout is β, the B+-tree fanout used in consolidation.
	Fanout int
	// L1Elements is the node size below which refinement sorts a node
	// outright instead of recursing (paper: nodes smaller than L1).
	L1Elements int

	// Workers sizes the parallel scan/partition kernels: 0 means
	// GOMAXPROCS, 1 forces the serial code paths (bit-for-bit the
	// pre-parallel behavior), larger values cap the chunk fan-out.
	// Answers are identical for every value; only wall-clock changes.
	Workers int
}

// Defaults returns the configuration used throughout the paper's
// evaluation: 64 buckets, 8 KiB blocks, β=64, L1 = 32 KiB of int64s,
// fixed δ=0.25 (Figure 8's setting).
func Defaults() Config {
	return Config{
		Mode:       FixedDelta,
		Delta:      0.25,
		RadixBits:  6,
		BlockSize:  1024,
		Fanout:     64,
		L1Elements: 4096,
	}
}

// normalize fills zero fields with defaults so constructors accept
// partially specified configs.
func (c Config) normalize() Config {
	d := Defaults()
	if c.RadixBits <= 0 {
		c.RadixBits = d.RadixBits
	}
	if c.RadixBits > 20 {
		c.RadixBits = 20 // 1M buckets is already absurd; cap to protect memory
	}
	if c.BlockSize <= 0 {
		c.BlockSize = d.BlockSize
	}
	if c.Fanout < 2 {
		c.Fanout = d.Fanout
	}
	if c.L1Elements <= 0 {
		c.L1Elements = d.L1Elements
	}
	if c.Mode == FixedDelta && c.Delta <= 0 {
		c.Delta = d.Delta
	}
	if c.Delta > 1 {
		c.Delta = 1
	}
	return c
}

// Stats reports what a single query call did, for the harness and the
// cost-model validation experiments (Figures 8 and 9). Alias of
// query.Stats so answers can carry it inline.
type Stats = query.Stats

// budgeter turns the configured budget mode into a per-query number of
// seconds to spend on indexing.
type budgeter struct {
	mode      BudgetMode
	delta     float64 // resolved δ for FixedDelta/FixedTime
	budgetSec float64
	target    float64 // t_adaptive for AdaptiveTime
	resolved  bool
}

func newBudgeter(cfg Config, scanTime float64) budgeter {
	return budgeter{
		mode:      cfg.Mode,
		delta:     cfg.Delta,
		budgetSec: cfg.BudgetSeconds,
		target:    scanTime + cfg.BudgetSeconds,
	}
}

// plan returns the seconds of indexing work for this query. base is the
// predicted cost of answering the query as-is; unitFull is the cost of
// a complete (δ=1) indexing pass in the current phase; scale multiplies
// the result — a shard's heat-weighted share of one query's budget
// (costmodel.HeatShares), 1 on an unsharded index.
func (b *budgeter) plan(base, unitFull, scale float64) float64 {
	switch b.mode {
	case FixedDelta:
		return scale * b.delta * unitFull
	case FixedTime:
		if !b.resolved {
			// δ = t_budget / t_pivot, resolved once on the first query
			// against the creation-phase pass cost.
			if unitFull > 0 {
				b.delta = b.budgetSec / unitFull
			}
			if b.delta > 1 {
				b.delta = 1
			}
			b.resolved = true
		}
		return scale * b.delta * unitFull
	case AdaptiveTime:
		if rem := b.target - base; rem > 0 {
			return scale * rem
		}
		return 0
	default:
		return 0
	}
}

// consolidator is the shared consolidation-phase state: a budgeted build
// of the B+-tree, packed leaves and all, over the final sorted array. The
// array is the consolidator's alone — the algorithm gave it up with
// takeSorted — and goes when the tree is finished, so a Done index holds
// its rows once, packed.
type consolidator struct {
	builder *btree.Builder
	tree    *btree.Tree
	sorted  []int64
	pool    *parallel.Pool
	n       int // rows
	done    int // rows packed
	// unit is the phase's δ = 1 cost, the tree's key copies plus the pack
	// of every row over the pool; a block costs its share of it.
	unit     float64
	perBlock float64
	credit   float64 // seconds granted and not yet spent on a block
}

func newConsolidator(sorted []int64, fanout int, m *costmodel.Model, pool *parallel.Pool) *consolidator {
	b, err := btree.NewBuilder(sorted, fanout)
	if err != nil {
		// fanout is normalized to >= 2 by Config.normalize; reaching
		// here is a programming error.
		panic(fmt.Sprintf("core: consolidator: %v", err))
	}
	c := &consolidator{builder: b, sorted: sorted, pool: pool, n: len(sorted)}
	c.unit = m.ConsolidateTime(b.TotalCopies()) + m.PackTime(c.n, pool.Workers())
	c.perBlock = c.unit / float64(max(b.Blocks(), 1))
	c.finish()
	return c
}

// step spends sec seconds of modeled work, in whole blocks: what does not
// buy one is carried to the next step, so a δ budget packs δ of the blocks
// a query on average however few there are, and a budget under a block
// still converges. It returns the seconds of the blocks it packed.
func (c *consolidator) step(sec float64) float64 {
	if c.finished() {
		return 0
	}
	c.credit += sec
	blocks := int(c.credit/c.perBlock + blockEpsilon)
	rows := c.builder.Step(c.pool, blocks)
	c.credit = max(c.credit-float64(blocks)*c.perBlock, 0)
	c.done += rows
	c.finish()
	return c.unit * float64(rows) / float64(c.n)
}

// blockEpsilon keeps a budget of δ·unit at δ·blocks blocks when the
// quotient lands a rounding error under the whole number.
const blockEpsilon = 1e-9

// finish trades the builder and the sorted array for the tree once the
// last block is packed.
func (c *consolidator) finish() {
	if c.builder.Done() {
		c.tree, c.builder, c.sorted = c.builder.Tree(), nil, nil
	}
}

func (c *consolidator) finished() bool { return c.tree != nil }

// answer resolves the query and reports how many elements it read to do
// so (the query's α): against the tree once that is complete — one pair
// of descents, and for a SUM the prefix sums plus fewer than 2β leaves —
// and until then by binary search on the sorted array (the paper's
// consolidation-phase behaviour), where a SUM reads the whole matching
// run. COUNT, MIN and MAX read nothing either way.
func (c *consolidator) answer(lo, hi int64, aggs column.Aggregates) (column.Agg, int) {
	if c.tree != nil {
		return c.tree.AggRange(lo, hi, aggs)
	}
	a := column.AggSorted(c.sorted, lo, hi, aggs)
	if !aggs.NeedsSum() {
		return a, 0
	}
	return a, int(a.Count)
}

// segmentExtrema assembles the accumulator a fused creation kernel
// returns: the SUM/COUNT it computed inline plus, only when the query
// asked for extrema, one AggRange pass over the just-copied segment.
// Keeping the min/max logic in the single canonical kernel (instead of
// copy-pasting the mask-select updates into every fused loop) costs one
// extra pass over δ·N elements on MIN/MAX queries and nothing on the
// paper's SUM workload.
func segmentExtrema(p *parallel.Pool, seg []int64, lo, hi int64, aggs column.Aggregates, sum, count int64) column.Agg {
	acc := column.NewAgg()
	acc.Sum, acc.Count = sum, count
	if aggs.NeedsMinMax() && count > 0 {
		mm := column.ParAggRange(p, seg, lo, hi, aggs)
		acc.Min, acc.Max = mm.Min, mm.Max
	}
	return acc
}

// midpoint returns vmin + (vmax-vmin)/2 without overflow; the paper's
// pivot choice ("average value of the smallest and largest value").
func midpoint(vmin, vmax int64) int64 {
	return vmin + (vmax-vmin)/2
}

// workEpsilon is the smallest seconds amount still worth dispatching
// into a phase work loop; below it the int conversions yield 0 units
// everywhere and the loop would spin.
const workEpsilon = 1e-12

// workUnits converts sec seconds of budget into whole work units of
// perUnit seconds each. Every step moves at least one unit, so progress
// never stalls on a budget smaller than the unit.
func workUnits(sec, perUnit float64) int {
	return max(int(sec/perUnit), 1)
}

// phaseProgress maps a lifecycle phase plus its intra-phase completion
// fraction to one overall convergence fraction in [0, 1]. The three
// phases are weighted equally — a deliberate simplification (their true
// cost ratios depend on the algorithm and the data) that keeps the
// number monotone, comparable across strategies, and exactly 1 at
// PhaseDone, which is all the serving layer's stats need.
func phaseProgress(p Phase, frac float64) float64 {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch p {
	case PhaseCreation:
		return frac / 3
	case PhaseRefinement:
		return (1 + frac) / 3
	case PhaseConsolidation:
		return (2 + frac) / 3
	case PhaseDone:
		return 1
	default:
		return 0
	}
}

// fraction returns done/total clamped to [0, 1], treating an empty
// denominator as complete.
func fraction(done, total int) float64 {
	if total <= 0 {
		return 1
	}
	f := float64(done) / float64(total)
	if f > 1 {
		return 1
	}
	return f
}

// progress reports the consolidator's completion fraction.
func (c *consolidator) progress() float64 {
	if c.finished() {
		return 1
	}
	return fraction(c.done, c.n)
}
