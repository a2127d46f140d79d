package cracking

import (
	"repro/internal/column"
	"repro/internal/query"
)

// CoarseGranular is the Coarse Granular Index (Schuhknecht et al.
// 2013): the first query pays for an out-of-place equal-width range
// partition of the whole column into Partitions pieces, which bounds
// every later piece size and removes standard cracking's worst
// pathologies; afterwards it behaves exactly like Standard Cracking.
type CoarseGranular struct {
	cfg Config
	cc  crackerColumn
	col *column.Column
}

// NewCoarseGranular builds a CGI index over col.
func NewCoarseGranular(col *column.Column, cfg Config) *CoarseGranular {
	cfg = cfg.normalize()
	return &CoarseGranular{cfg: cfg, col: col}
}

// Name implements query.Index.
func (c *CoarseGranular) Name() string { return "CGI" }

// Converged reports false (cracking never finalizes).
func (c *CoarseGranular) Converged() bool { return false }

// Execute initializes with the coarse partition on the first call, then
// cracks at the predicate bounds and answers the requested aggregates.
func (c *CoarseGranular) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, c.col.Min(), c.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		return c.execute(lo, hi, aggs), query.Stats{Workers: c.cc.pool.Workers()}
	})
}

func (c *CoarseGranular) execute(lo, hi int64, aggs column.Aggregates) column.Agg {
	if !c.cc.ready() {
		c.cc.kernel = c.cfg.Kernel
		c.cc.init(c.col, c.cfg.Workers)
		c.cc.partitionRadix(0, c.col.Len(), c.col.Min(), c.col.Max()+1, c.cfg.Partitions)
	}
	c.cc.crackAt(lo)
	c.cc.crackAt(hi + 1)
	return c.cc.answer(lo, hi, aggs)
}

// Cracks returns the number of cracks in the index (tests/metrics).
func (c *CoarseGranular) Cracks() int { return c.cc.idx.Size() }
