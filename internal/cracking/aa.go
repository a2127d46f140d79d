package cracking

import (
	"repro/internal/column"
	"repro/internal/query"
)

// AdaptiveAdaptive approximates Adaptive Adaptive Indexing (Schuhknecht
// et al., ICDE 2018) with the manual configuration the paper uses. The
// real AA is a parameterized generalization of the cracking design
// space that relies on software-managed buffers and non-temporal
// streaming stores; neither exists in Go, so this reproduction keeps
// its *algorithmic* structure and gives up the micro-architectural
// tricks (the substitution is recorded in DESIGN.md):
//
//   - first query: out-of-place radix partition of the whole column
//     into Partitions equal-width pieces (fanout f1);
//   - later queries: boundary pieces larger than L2 are radix-refined
//     out-of-place with fanout SubPartitions (f2); smaller pieces are
//     cracked in two exactly at the bound.
//
// The resulting cost profile matches the paper's AA rows: an expensive
// first query (~2 scans plus materialization), fast convergence of hot
// regions, and the best cumulative time among the adaptive baselines.
type AdaptiveAdaptive struct {
	cfg Config
	cc  crackerColumn
	col *column.Column
}

// NewAdaptiveAdaptive builds an AA index over col.
func NewAdaptiveAdaptive(col *column.Column, cfg Config) *AdaptiveAdaptive {
	cfg = cfg.normalize()
	return &AdaptiveAdaptive{cfg: cfg, col: col}
}

// Name implements query.Index.
func (a *AdaptiveAdaptive) Name() string { return "AA" }

// Converged reports false (adaptive indexes never finalize).
func (a *AdaptiveAdaptive) Converged() bool { return false }

// Execute refines the boundary pieces (radix for large, crack-in-two
// for small), then answers the requested aggregates.
func (a *AdaptiveAdaptive) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, a.col.Min(), a.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		return a.execute(lo, hi, aggs), query.Stats{Workers: a.cc.pool.Workers()}
	})
}

func (a *AdaptiveAdaptive) execute(lo, hi int64, aggs column.Aggregates) column.Agg {
	if !a.cc.ready() {
		a.cc.kernel = a.cfg.Kernel
		a.cc.init(a.col, a.cfg.Workers)
		a.cc.partitionRadix(0, a.col.Len(), a.col.Min(), a.col.Max()+1, a.cfg.Partitions)
	}
	for _, v := range [2]int64{lo, hi + 1} {
		pa, pb, vlo, vhi := a.cc.piece(v)
		if pb-pa > a.cfg.L2Elements {
			if a.cc.partitionRadix(pa, pb, vlo, vhi, a.cfg.SubPartitions) > 0 {
				continue
			}
		}
		if pb-pa > a.cfg.MinPiece {
			a.cc.crackAt(v)
		}
	}
	return a.cc.answer(lo, hi, aggs)
}

// Cracks returns the number of cracks in the index (tests/metrics).
func (a *AdaptiveAdaptive) Cracks() int { return a.cc.idx.Size() }
