package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/column"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/shard"
)

// column resolves a column name against the schema; the empty name is
// the first column.
func (t *Table) column(name string) (int, error) {
	if name == "" {
		return 0, nil
	}
	if i, ok := t.byName[name]; ok {
		return i, nil
	}
	// The name is cloned into the error so that no query's strings escape:
	// a plain request's conjunction then lives on its caller's stack.
	return 0, fmt.Errorf("plan: unknown column %q in table %q", strings.Clone(name), t.name)
}

// execConj answers one conjunction under the table's read lock and
// leaves the planner's choice in ch. lead says it leads an unclamped
// batch; only the direct route can act on that, the scan spends no
// indexing budget at all.
//
// Route selection:
//   - no predicates, or one predicate on the aggregate target column:
//     direct route through the column's own shards (full index
//     acceleration where they are indexed, the cold scan where they are
//     not — which is what heats them towards a claim), decided before
//     anything is allocated: a one-column table knows no other;
//   - everything else: planner picks the driving column, then a fused
//     block scan prunes with every column's zone maps and ANDs the
//     predicates, driver first, into one selection mask per block.
func (t *Table) execConj(c query.Conjunction, tr *obs.Trace, forced int, lead bool, ch *Choice) (query.Answer, error) {
	if err := c.Validate(); err != nil {
		return query.Answer{}, err
	}
	tgt, err := t.column(c.TargetCol())
	if err != nil {
		return query.Answer{}, err
	}
	aggs := c.Aggs.Normalize()
	if forced < 0 && len(c.Preds) <= 1 {
		on, req := tgt, query.Request{Aggs: aggs}
		if len(c.Preds) == 1 {
			if on, err = t.column(c.Preds[0].Col); err != nil {
				return query.Answer{}, err
			}
			req.Pred = c.Preds[0].Pred
		} else {
			// An unconditional aggregate is a predicate covering the
			// target's zone.
			req.Pred = query.Range(t.cols[tgt].idx.ValueBounds())
		}
		if on == tgt {
			return t.execDirect(tgt, req, tr, lead, ch)
		}
	}
	preds := make([]query.ColPredicate, len(c.Preds))
	bounds := make([][2]int64, len(c.Preds))
	emptyPred := false
	for i, cp := range c.Preds {
		ci, err := t.column(cp.Col)
		if err != nil {
			return query.Answer{}, err
		}
		cp.Col = t.cols[ci].name
		t.cols[ci].heat.Add(1)
		preds[i] = cp
		mn, mx := t.cols[ci].idx.ValueBounds()
		lo, hi, empty := cp.Pred.Bounds(mn, mx)
		if empty {
			emptyPred = true
		}
		bounds[i] = [2]int64{lo, hi}
	}

	// A predicate disjoint from its column's zone empties the whole
	// conjunction without touching any row.
	if emptyPred {
		*ch = Choice{Driver: preds[0].Col}
		if forced >= 0 && forced < len(preds) {
			ch.Driver = preds[forced].Col
			ch.Forced = true
		}
		ans := query.NewAnswer(column.NewAgg(), aggs, query.Stats{Workers: t.pool.Workers()})
		t.tracePlan(tr, ch, aggs, true)
		return ans, nil
	}

	// The target's and the predicate columns' block views. The table's
	// lock has kept the columns in lockstep; the scan ANDs masks across
	// them block by block, so it refuses to run if they are not.
	tgtView := t.cols[tgt].idx.BlockView()
	views := make([][]shard.Block, len(preds))
	for i, cp := range preds {
		views[i] = t.cols[t.byName[cp.Col]].idx.BlockView()
		if len(views[i]) != len(tgtView) {
			return query.Answer{}, fmt.Errorf("plan: table %q: columns %q and %q are out of lockstep", t.name, cp.Col, t.cols[tgt].name)
		}
	}
	var driver int
	driver, *ch = t.choose(preds, bounds, views, forced)
	ans := t.fusedScan(preds, bounds, views, tgtView, driver, aggs, ch)
	t.tracePlan(tr, ch, aggs, false)
	return ans, nil
}

// execDirect answers a single-column query on column tgt through the
// column's own shards, like any single-column table's; lead hands it the
// batch's δ (ExecuteConjBatch), otherwise the column's indexes are
// clamped.
func (t *Table) execDirect(tgt int, req query.Request, tr *obs.Trace, lead bool, ch *Choice) (query.Answer, error) {
	cs := t.cols[tgt]
	cs.heat.Add(1)
	*ch = Choice{Driver: cs.name, Direct: true, col: tgt}
	ans, err := cs.idx.ExecuteAs(req, lead, tr)
	if err != nil {
		return query.Answer{}, err
	}
	ch.MatchedRows = ans.Count
	ch.DriverRows = ans.Count
	t.tracePlan(tr, ch, req.Aggs, false)
	return ans, nil
}

// tracePlan records the planner-choice span: driver, per-column
// estimated vs actual selectivity, and residual verification volume.
func (t *Table) tracePlan(tr *obs.Trace, ch *Choice, aggs column.Aggregates, empty bool) {
	if tr == nil {
		return
	}
	sp := tr.Start(tr.AttachPoint(), "plan")
	tr.Str(sp, "driver", ch.Driver)
	tr.Bool(sp, "direct", ch.Direct)
	if ch.Forced {
		tr.Bool(sp, "forced", true)
	}
	if empty {
		tr.Bool(sp, "zone_empty", true)
	}
	rows := float64(t.rows)
	for _, cand := range ch.Candidates {
		tr.Float(sp, "est_sel."+cand.Col, cand.EstSel)
		tr.Float(sp, "cost."+cand.Col, cand.Cost)
	}
	tr.Int(sp, "scanned_blocks", int64(ch.ScannedBlocks))
	tr.Int(sp, "pruned_blocks", int64(ch.PrunedBlocks))
	tr.Int(sp, "driver_rows", int64(ch.DriverRows))
	tr.Int(sp, "residual_rows", int64(ch.ResidualRows))
	tr.Int(sp, "matched_rows", int64(ch.MatchedRows))
	if rows > 0 {
		tr.Float(sp, "actual_sel", float64(ch.MatchedRows)/rows)
	}
	tr.End(sp)
}

// fusedScan answers a conjunction in one pass over the zone-pruned
// blocks without decoding any of them: a block survives only if every
// predicate's zone overlaps it (the maps are row-aligned, so the AND of
// zones is exact pruning); per surviving block one selection mask
// starts all-ones, each predicate — driver first, residuals in
// estimated-selectivity order — ANDs its match bits in with the block's
// Refine kernel, the first predicate to empty the mask ends the
// block, and the target column is aggregated under what is left. A
// predicate whose bounds cover the block's zone passes every row and
// is not evaluated. Chunk partials merge in block order, so answers are
// bit-identical at every worker count and for every driver choice.
//
// A forced driver (ExplainConj's worst-column baseline) instead prunes
// with that column's zones alone — emulating an engine whose only
// access path is the pinned column, which is exactly the per-candidate
// cost the planner scores — while residual predicates are still
// verified on every surviving block, so the answer stays identical and
// only the work differs.
func (t *Table) fusedScan(preds []query.ColPredicate, bounds [][2]int64, views [][]shard.Block, tgtView []shard.Block, driver int, aggs column.Aggregates, ch *Choice) query.Answer {
	// Evaluation order: driver first, then residuals by ascending
	// zone-map estimate (cheapest rejections first).
	order := make([]int, 0, len(preds))
	order = append(order, driver)
	for i := range preds {
		if i != driver {
			order = append(order, i)
		}
	}
	rest := order[1:]
	sort.Slice(rest, func(a, b int) bool {
		return ch.Candidates[rest[a]].EstRows < ch.Candidates[rest[b]].EstRows
	})

	// Survivors of the zone AND — or of the pinned driver's zones alone
	// when the caller forced the access path.
	nb := len(tgtView)
	surv := make([]int32, 0, nb)
	for b := 0; b < nb; b++ {
		live := true
		if ch.Forced {
			blk := &views[driver][b]
			live = bounds[driver][1] >= blk.Min && bounds[driver][0] <= blk.Max
		} else {
			for i := range preds {
				if blk := &views[i][b]; bounds[i][1] < blk.Min || bounds[i][0] > blk.Max {
					live = false
					break
				}
			}
		}
		if live {
			surv = append(surv, int32(b))
		}
	}
	ch.ScannedBlocks, ch.PrunedBlocks = len(surv), nb-len(surv)

	// One partial per chunk; chunks Run never invokes (an all-pruned
	// scan) keep the ±inf extrema sentinels, so the merge stays
	// branch-free.
	type partial struct {
		agg              column.Agg
		rows, driverRows int64
	}
	partials := make([]partial, t.pool.Chunks(len(surv), minBlocksPerChunk))
	for c := range partials {
		partials[c].agg = column.NewAgg()
	}
	t.pool.Run(len(surv), minBlocksPerChunk, func(chunk, clo, chi int) {
		p := partial{agg: column.NewAgg()}
		var mask [shard.BlockRows / 64]uint64
		for _, b32 := range surv[clo:chi] {
			b := int(b32)
			live := tgtView[b].Len()
			p.rows += int64(live)
			column.FillMask(mask[:], live)
			for r, i := range order {
				lo, hi := bounds[i][0], bounds[i][1]
				if blk := &views[i][b]; lo > blk.Min || hi < blk.Max {
					live = blk.Refine(lo, hi, mask[:])
				}
				if r == 0 {
					p.driverRows += int64(live)
				}
				if live == 0 {
					break
				}
			}
			if live > 0 {
				p.agg.Merge(tgtView[b].AggMasked(mask[:], aggs))
			}
		}
		partials[chunk] = p
	})

	total := column.NewAgg()
	var scannedRows int64
	for _, p := range partials {
		total.Merge(p.agg)
		scannedRows += p.rows
		ch.DriverRows += p.driverRows
	}
	if len(order) > 1 {
		ch.ResidualRows = ch.DriverRows
	}
	ch.MatchedRows = total.Count

	return query.NewAnswer(total, aggs, query.Stats{
		Phase:         t.cols[t.byName[preds[driver].Col]].idx.Phase(),
		Workers:       t.pool.Workers(),
		AlphaElems:    int(scannedRows),
		ShardsScanned: ch.ScannedBlocks,
		ShardsPruned:  ch.PrunedBlocks,
	})
}

// minBlocksPerChunk sizes the parallel fan-out over surviving blocks:
// 16 blocks × BlockRows rows = the 64Ki-row floor the column kernels
// use before going parallel.
const minBlocksPerChunk = 16
