package plan

import (
	"repro/internal/query"
	"repro/internal/shard"
)

// Candidate is the planner's per-predicate costing for one column of a
// conjunction, kept for explainability: the trace spans and the debug
// endpoint expose these verbatim.
type Candidate struct {
	Col string `json:"col"`
	// EstRows is the zone-map estimate of rows matching this column's
	// predicate alone; EstSel the same as a fraction of the table.
	EstRows float64 `json:"est_rows"`
	EstSel  float64 `json:"est_selectivity"`
	// ScanBlocks is how many zone-map blocks survive pruning when this
	// column drives.
	ScanBlocks int `json:"scan_blocks"`
	// Cost is the planner's unit-row cost of driving with this column:
	// the rows its surviving blocks force the scan to touch, plus one
	// residual check per row its own predicate is estimated to pass.
	Cost float64 `json:"cost"`
	// Progress is the column's index convergence, the tiebreak between
	// near-equal costs ("most selective indexed-enough column").
	Progress float64 `json:"index_progress"`
}

// Choice is one planned conjunction: which column drives, why, and —
// after execution — what actually happened, for the estimated-vs-actual
// selectivity trace attributes.
type Choice struct {
	Driver     string      `json:"driver"`
	Forced     bool        `json:"forced,omitempty"`
	Direct     bool        `json:"direct,omitempty"` // routed to the driver's own index
	col        int         // the driver's position in the schema, on the direct route
	Candidates []Candidate `json:"candidates,omitempty"`
	// Execution actuals, filled by the fused scan.
	ScannedBlocks int   `json:"scanned_blocks"`
	PrunedBlocks  int   `json:"pruned_blocks"`
	DriverRows    int64 `json:"driver_rows"`   // rows passing the driver predicate
	ResidualRows  int64 `json:"residual_rows"` // driver rows handed to residual verification
	MatchedRows   int64 `json:"matched_rows"`
}

// choose costs every predicate column of the (already clamped) bounds
// and picks the driver: lowest unit-row cost, ties broken toward the
// column whose index has converged furthest. forced >= 0 pins the
// driver to preds[forced]'s column (the benchmark's worst-column
// baseline); the candidates are still costed so the trace shows what
// the planner would have done.
func (t *Table) choose(preds []query.ColPredicate, bounds [][2]int64, views [][]shard.Block, forced int) (int, Choice) {
	ch := Choice{Candidates: make([]Candidate, len(preds))}
	rows := float64(t.rows)
	best := 0
	for i, cp := range preds {
		lo, hi := bounds[i][0], bounds[i][1]
		est := estRows(views[i], lo, hi)
		blocks := scanBlocks(views[i], lo, hi)
		cost := float64(blocks*shard.BlockRows) + est*float64(len(preds)-1)
		cand := Candidate{
			Col: cp.Col, EstRows: est, ScanBlocks: blocks, Cost: cost,
			Progress: t.cols[t.byName[cp.Col]].idx.Progress(),
		}
		if rows > 0 {
			cand.EstSel = est / rows
		}
		ch.Candidates[i] = cand
		if i == 0 {
			continue
		}
		b := ch.Candidates[best]
		switch {
		case cost < b.Cost:
			best = i
		case cost == b.Cost && cand.Progress > b.Progress:
			// Equal cost: prefer the more-indexed column, whose single-
			// predicate fast paths and future refinement the workload can
			// actually exploit.
			best = i
		}
	}
	if forced >= 0 && forced < len(preds) {
		best = forced
		ch.Forced = true
	}
	ch.Driver = preds[best].Col
	return best, ch
}

// estRows estimates how many of a column's rows satisfy [lo, hi] from
// its zone maps alone: each overlapping block contributes its row count
// scaled by the fraction of its zone the predicate covers
// (uniform-within-block assumption). Exact zero when no zone overlaps.
func estRows(bv []shard.Block, lo, hi int64) float64 {
	est := 0.0
	for b := range bv {
		zlo, zhi := bv[b].Min, bv[b].Max
		if hi < zlo || lo > zhi {
			continue
		}
		olo, ohi := lo, hi
		if olo < zlo {
			olo = zlo
		}
		if ohi > zhi {
			ohi = zhi
		}
		est += float64(ohi-olo+1) / float64(zhi-zlo+1) * float64(bv[b].Len())
	}
	return est
}

// scanBlocks counts the blocks whose zone overlaps [lo, hi] — the
// blocks a scan driven by this column would have to touch.
func scanBlocks(bv []shard.Block, lo, hi int64) int {
	count := 0
	for b := range bv {
		if hi >= bv[b].Min && lo <= bv[b].Max {
			count++
		}
	}
	return count
}
