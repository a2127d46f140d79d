package core

import (
	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/encode"
	"repro/internal/parallel"
	"repro/internal/query"
)

// algorithm is everything one progressive algorithm contributes to the
// lifecycle: its creation and refinement steps, each with the answer
// over the part of the data it already holds, the cost prediction and
// δ = 1 unit cost of those two phases, refinement progress, and the
// sorted array refinement ends with, which it hands over. Budget
// planning, creation accounting, phase transitions, consolidation, the
// Done path and Stats are the driver's (progressive) and exist once. The
// driver calls through this interface O(1) times per query; the
// per-element loops stay inside the implementations.
type algorithm interface {
	// predict estimates the cost of answering [lo, hi] from the current
	// creation- or refinement-phase state (the non-δ terms of the
	// paper's t_total formulas) and the α element count it used.
	predict(lo, hi int64) (base float64, alpha int)
	// unitFull is the cost of a complete (δ = 1) indexing pass in the
	// creation or refinement phase.
	unitFull(p Phase) float64
	// createCosts returns the model's per-element creation costs: the
	// full cost, which a δ budget is a fraction of, and the marginal
	// cost on top of the scan the query pays anyway.
	createCosts() (full, marginal float64)
	// create answers [lo, hi] over the already-indexed elements, then
	// moves up to units more from the base column into the index,
	// advancing the driver's copied cursor and aggregating the moved
	// segment for the in-flight query. It returns the combined
	// aggregate and how many elements it moved.
	create(units int, lo, hi int64, aggs column.Aggregates) (column.Agg, int)
	// startRefinement is called once, when creation has copied every
	// element.
	startRefinement()
	// answer resolves [lo, hi] exactly from the refinement-phase state.
	answer(lo, hi int64, aggs column.Aggregates) column.Agg
	// refine spends up to sec seconds of modeled refinement work —
	// first on the regions [lo, hi] touches, where the algorithm can
	// prioritize — and returns the seconds consumed. more is false when
	// the step refused to make progress, which ends the query's work.
	refine(sec float64, lo, hi int64) (consumed float64, more bool)
	// refineProgress is the completed fraction of refinement, in [0, 1].
	refineProgress() float64
	// takeSorted returns nil until refinement is complete, and then, once,
	// the final sorted array: the algorithm forgets it and everything it
	// refined it with, and the driver consolidates over it.
	takeSorted() []int64
}

// progressive is the lifecycle driver the four algorithms embed: one
// creation → refinement → consolidation → done state machine, one δ
// planned per query by one budget rule, one cost shape t_total = base +
// δ·t_unit (Section 3). It owns everything about a query that does not
// depend on how the algorithm organizes its data.
type progressive struct {
	name  string
	alg   algorithm
	cfg   Config
	model *costmodel.Model
	col   *column.Column
	pool  *parallel.Pool
	n     int

	phase  Phase
	budget budgeter
	// copied is creation's progress into the base column; the
	// algorithm's create step advances it.
	copied int
	cons   *consolidator
}

func newProgressive(name string, alg algorithm, col *column.Column, cfg Config) progressive {
	cfg = cfg.normalize()
	m := costmodel.New(cfg.Params)
	pool := parallel.New(cfg.Workers)
	return progressive{
		name:   name,
		alg:    alg,
		cfg:    cfg,
		model:  m,
		col:    col,
		pool:   pool,
		n:      col.Len(),
		budget: newBudgeter(cfg, m.ParScanTime(col.Len(), pool.Workers())),
	}
}

// Name returns the algorithm's short name (PQ, PMSD, PB, PLSD).
func (d *progressive) Name() string { return d.name }

// Phase returns the current lifecycle phase.
func (d *progressive) Phase() Phase { return d.phase }

// Converged reports whether the index has reached its final state
// (B+-tree complete).
func (d *progressive) Converged() bool { return d.phase == PhaseDone }

// ReleaseBase implements query.Budgeted. Once Done the driver reads
// nothing of the base column but its zone (Execute clamps to it; the
// answers come from the B+-tree's packed leaves and n is cached), so
// the rows go and the zone stays. Before Done it does nothing.
func (d *progressive) ReleaseBase() bool {
	if d.phase == PhaseDone {
		d.col = d.col.Zone()
	}
	return d.phase == PhaseDone
}

// SizeBytes returns the payload a Done index holds, its B+-tree's keys,
// prefix sums and packed leaves (the shard layer adds it to a settled
// shard's resident bytes); 0 before, whatever the algorithm has allocated.
func (d *progressive) SizeBytes() int {
	if d.phase != PhaseDone {
		return 0
	}
	return d.cons.tree.SizeBytes()
}

// Leaves returns the rows a Done index converged to, its B+-tree's packed
// leaves in sorted order (a settled shard that keeps no row order reads
// its rows there); nil before.
func (d *progressive) Leaves() []*encode.SortedBlock {
	if d.phase != PhaseDone {
		return nil
	}
	return d.cons.tree.Leaves()
}

// Progress implements query.Budgeted.
func (d *progressive) Progress() float64 {
	switch d.phase {
	case PhaseCreation:
		return phaseProgress(d.phase, fraction(d.copied, d.n))
	case PhaseRefinement:
		return phaseProgress(d.phase, d.alg.refineProgress())
	case PhaseConsolidation:
		return phaseProgress(d.phase, d.cons.progress())
	default:
		return 1
	}
}

// Execute implements query.Index: answer the request's predicate with
// the requested aggregates while performing one budget's worth of
// indexing work; the work Stats travel inline in the Answer.
func (d *progressive) Execute(req query.Request) (query.Answer, error) {
	return d.ExecuteSlice(req, 1, false)
}

// ExecuteSlice implements query.Budgeted: Execute with the planned
// indexing work multiplied by scale (the shard layer's heat-weighted
// split of one query's budget), or with none planned at all (suspend:
// the batching scheduler pays one budget per batch, not one per request).
func (d *progressive) ExecuteSlice(req query.Request, scale float64, suspend bool) (query.Answer, error) {
	return query.Run(req, d.col.Min(), d.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, Stats) {
		return d.execute(lo, hi, aggs, scale, suspend)
	})
}

// execute answers the clamped inclusive range [lo, hi] with the
// requested aggregates while performing one budget's worth of indexing
// work (creation copying interleaved with the scan, refinement, or
// consolidation B+-tree building, spilling across phase transitions).
// Once the index is Done the call is strictly read-only — nothing is
// planned and no field is written — so converged indexes can serve
// concurrent readers under a shared lock (a shard's).
func (d *progressive) execute(lo, hi int64, aggs column.Aggregates, scale float64, suspend bool) (column.Agg, Stats) {
	startPhase := d.phase
	// base is the cost-model estimate for answering from the current
	// state (with the α element count it used), unit the cost of a δ = 1
	// indexing pass in this phase: the algorithm's while it still
	// organizes the data. Once the sorted array exists the answer is
	// computed first and base is what it did — a search plus the elements
	// it read, at most 2β of them when the tree is complete — and unit is
	// the B+-tree's copies plus the pack of its leaves.
	var (
		res        column.Agg
		base, unit float64
		alpha      int
	)
	cons := d.cons
	if cons == nil {
		base, alpha = d.alg.predict(lo, hi)
		unit = d.alg.unitFull(startPhase)
	} else {
		res, alpha = cons.answer(lo, hi, aggs)
		base = d.model.BinarySearchTime(d.n) + d.model.ScanTime(alpha)
		if startPhase == PhaseConsolidation {
			unit = cons.unit
		}
	}
	planned := 0.0
	if startPhase != PhaseDone && !suspend {
		// A suspended call answers exactly but plans no work (creation
		// still copies its minimum one element, since the creation step
		// doubles as part of the answer path).
		planned = d.budget.plan(base, unit, scale)
	}

	consumed, delta := 0.0, 0.0
	if startPhase == PhaseCreation {
		// The copied segment is aggregated while it is being moved into
		// the index, so it is not scanned twice and the marginal cost of
		// indexing one element excludes the scan — exactly the paper's
		// t_total = (1-ρ+α-δ)·t_scan + δ·t_pivot once base (which includes
		// the full tail scan) is added. δ is a fraction of a full pass;
		// the adaptive budget is spent at the marginal rate.
		perUnitPlan, marginal := d.alg.createCosts()
		if d.budget.mode == AdaptiveTime {
			perUnitPlan = marginal
		}
		if d.budget.mode != FixedDelta {
			// Wall-clock budgets size the step against the parallel
			// creation kernel's cost (DESIGN.md section 3) and report what
			// it consumed in the same seconds; δ budgets keep their
			// fraction-of-data meaning and stay unscaled.
			speedup := d.model.Speedup(d.pool.Workers())
			perUnitPlan /= speedup
			marginal /= speedup
		}
		var did int
		res, did = d.alg.create(workUnits(planned, perUnitPlan), lo, hi, aggs)
		res.Merge(column.ParAggRange(d.pool, d.col.Slice(d.copied, d.n), lo, hi, aggs))
		consumed = float64(did) * marginal
		delta = float64(did) / float64(d.n) // δ = fraction indexed
		if d.copied == d.n {
			d.alg.startRefinement()
			d.phase = PhaseRefinement
			d.consolidateIfSorted()
			if spill := planned - float64(did)*perUnitPlan; spill > 0 {
				consumed += d.work(spill, lo, hi)
			}
		}
	} else {
		if cons == nil {
			res = d.alg.answer(lo, hi, aggs)
		}
		consumed = d.work(planned, lo, hi)
		if unit > 0 {
			delta = consumed / unit
		}
	}
	return res, Stats{
		Phase:       startPhase,
		Delta:       delta,
		WorkSeconds: consumed,
		BaseSeconds: base,
		Predicted:   base + consumed,
		AlphaElems:  alpha,
		Workers:     d.pool.Workers(),
	}
}

// work spends up to sec seconds of cost-model work on indexing,
// transitioning phases as they complete (leftover budget spills into
// the next phase), and returns the seconds consumed. The query bounds
// let a refinement step prioritize the regions the workload touches.
func (d *progressive) work(sec float64, lo, hi int64) float64 {
	consumed := 0.0
	for sec-consumed > workEpsilon {
		switch d.phase {
		case PhaseRefinement:
			did, more := d.alg.refine(sec-consumed, lo, hi)
			consumed += did
			if !d.consolidateIfSorted() && !more {
				return consumed // defensive: refusal to make progress
			}
		case PhaseConsolidation:
			// One step takes all that is left: what buys no whole block
			// is the consolidator's to carry, not this loop's to offer again.
			consumed += d.cons.step(sec - consumed)
			if d.cons.finished() {
				d.phase = PhaseDone
			}
			return consumed
		default:
			// Creation work is interleaved with answering in execute;
			// Done has none left.
			return consumed
		}
	}
	return consumed
}

// consolidateIfSorted moves to consolidation once the algorithm's
// refinement has produced the sorted array, and reports whether it did.
func (d *progressive) consolidateIfSorted() bool {
	sorted := d.alg.takeSorted()
	if sorted == nil {
		return false
	}
	d.cons = newConsolidator(sorted, d.cfg.Fanout, d.model, d.pool)
	d.phase = PhaseConsolidation
	if d.cons.finished() {
		d.phase = PhaseDone
	}
	return true
}
