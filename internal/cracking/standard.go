package cracking

import (
	"repro/internal/column"
	"repro/internal/query"
)

// Standard is Standard Cracking (Idreos et al. 2007): every query
// cracks the column at both predicate bounds, so the cracker column
// converges only in the regions the workload touches.
type Standard struct {
	cfg Config
	cc  crackerColumn
	col *column.Column
}

// NewStandard builds a Standard Cracking index over col. The cracker
// column is copied lazily on the first query.
func NewStandard(col *column.Column, cfg Config) *Standard {
	cfg = cfg.normalize()
	return &Standard{cfg: cfg, col: col}
}

// Name implements query.Index.
func (s *Standard) Name() string { return "STD" }

// Converged reports false: cracking converges only in the limit and
// never finalizes an index (Table 2 reports "x").
func (s *Standard) Converged() bool { return false }

// Execute cracks at the predicate bounds, then answers the requested
// aggregates from the crack state.
func (s *Standard) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, s.col.Min(), s.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		return s.execute(lo, hi, aggs), query.Stats{Workers: s.cc.pool.Workers()}
	})
}

func (s *Standard) execute(lo, hi int64, aggs column.Aggregates) column.Agg {
	if !s.cc.ready() {
		s.cc.kernel = s.cfg.Kernel
		s.cc.init(s.col, s.cfg.Workers)
	}
	s.cc.crackAt(lo)
	s.cc.crackAt(hi + 1)
	return s.cc.answer(lo, hi, aggs)
}

// Cracks returns the number of cracks in the index (tests/metrics).
func (s *Standard) Cracks() int { return s.cc.idx.Size() }
