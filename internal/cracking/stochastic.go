package cracking

import (
	"math/rand"

	"repro/internal/column"
	"repro/internal/query"
)

// Stochastic is Stochastic Cracking (Halim et al. 2012, the DD1R
// family): instead of cracking exactly at the query bounds — which
// under sequential workloads leaves enormous unindexed pieces — each
// boundary piece is cracked at a *random* element value. Pieces that
// already fit in L2 are cracked exactly at the bound, so queries still
// converge locally.
type Stochastic struct {
	cfg Config
	cc  crackerColumn
	col *column.Column
	rng *rand.Rand
}

// NewStochastic builds a Stochastic Cracking index over col.
func NewStochastic(col *column.Column, cfg Config) *Stochastic {
	cfg = cfg.normalize()
	return &Stochastic{cfg: cfg, col: col, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements query.Index.
func (s *Stochastic) Name() string { return "STC" }

// Converged reports false (see Standard.Converged).
func (s *Stochastic) Converged() bool { return false }

// Execute performs one random crack per boundary piece (exact crack for
// small pieces), then answers the requested aggregates.
func (s *Stochastic) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, s.col.Min(), s.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		return s.execute(lo, hi, aggs), query.Stats{Workers: s.cc.pool.Workers()}
	})
}

func (s *Stochastic) execute(lo, hi int64, aggs column.Aggregates) column.Agg {
	if !s.cc.ready() {
		s.cc.kernel = s.cfg.Kernel
		s.cc.init(s.col, s.cfg.Workers)
	}
	for _, v := range [2]int64{lo, hi + 1} {
		a, b, _, _ := s.cc.piece(v)
		size := b - a
		switch {
		case size <= s.cfg.MinPiece:
			// Too small to be worth cracking at all.
		case size <= s.cfg.L2Elements:
			s.cc.crackAt(v)
		default:
			pv := s.cc.arr[a+s.rng.Intn(size)]
			if _, ok := s.cc.idx.Lookup(pv); !ok {
				split, swaps := Crack(s.cc.arr, a, b, pv, s.cfg.Kernel)
				s.cc.swaps += swaps
				s.cc.idx.Insert(pv, split)
			}
		}
	}
	return s.cc.answer(lo, hi, aggs)
}

// Cracks returns the number of cracks in the index (tests/metrics).
func (s *Stochastic) Cracks() int { return s.cc.idx.Size() }

// crackJob is a paused partition of region [a, b) around pivot value
// pv; lo/hi are the resumable cursors.
type crackJob struct {
	a, b   int
	pv     int64
	lo, hi int
}

// ProgressiveStochastic is Progressive Stochastic Cracking: stochastic
// cracking whose random cracks are bounded to a per-query swap
// allowance (the paper runs it with 10% of the column). Oversized
// cracks pause and resume across queries.
type ProgressiveStochastic struct {
	cfg  Config
	cc   crackerColumn
	col  *column.Column
	rng  *rand.Rand
	jobs map[int]*crackJob // keyed by region start
}

// NewProgressiveStochastic builds a PSTC index over col.
func NewProgressiveStochastic(col *column.Column, cfg Config) *ProgressiveStochastic {
	cfg = cfg.normalize()
	return &ProgressiveStochastic{
		cfg:  cfg,
		col:  col,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		jobs: make(map[int]*crackJob),
	}
}

// Name implements query.Index.
func (p *ProgressiveStochastic) Name() string { return "PSTC" }

// Converged reports false (see Standard.Converged).
func (p *ProgressiveStochastic) Converged() bool { return false }

// Execute advances at most SwapFraction·N swaps of cracking work, then
// answers the requested aggregates from the crack state.
func (p *ProgressiveStochastic) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, p.col.Min(), p.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		return p.execute(lo, hi, aggs), query.Stats{Workers: p.cc.pool.Workers()}
	})
}

func (p *ProgressiveStochastic) execute(lo, hi int64, aggs column.Aggregates) column.Agg {
	if !p.cc.ready() {
		p.cc.kernel = p.cfg.Kernel
		p.cc.init(p.col, p.cfg.Workers)
	}
	allowance := int(p.cfg.SwapFraction * float64(len(p.cc.arr)))
	if allowance < 1 {
		allowance = 1
	}
	for _, v := range [2]int64{lo, hi + 1} {
		if allowance <= 0 {
			break
		}
		a, b, _, _ := p.cc.piece(v)
		size := b - a
		switch {
		case size <= p.cfg.MinPiece:
		case size <= p.cfg.L2Elements:
			// Complete crack for small pieces — but only if no paused
			// job covers this region (it cannot: jobs exist only for
			// pieces larger than L2, and pieces only shrink when a job
			// completes).
			p.cc.crackAt(v)
			allowance -= size / 2 // approximation of the swap cost
		default:
			job := p.jobs[a]
			if job == nil || job.b != b {
				pv := p.cc.arr[a+p.rng.Intn(size)]
				job = &crackJob{a: a, b: b, pv: pv, lo: a, hi: b - 1}
				p.jobs[a] = job
			}
			used, done := p.advance(job, allowance)
			allowance -= used
			if done {
				delete(p.jobs, a)
			}
		}
	}
	return p.cc.answer(lo, hi, aggs)
}

// advance runs the job's partition for at most maxSwaps swaps; on
// completion it registers the crack.
func (p *ProgressiveStochastic) advance(job *crackJob, maxSwaps int) (used int, done bool) {
	arr := p.cc.arr
	lo, hi, pv := job.lo, job.hi, job.pv
	for lo <= hi && used < maxSwaps {
		if arr[lo] < pv {
			lo++
		} else if arr[hi] >= pv {
			hi--
		} else {
			arr[lo], arr[hi] = arr[hi], arr[lo]
			lo++
			hi--
			used++
		}
	}
	job.lo, job.hi = lo, hi
	if lo > hi {
		p.cc.swaps += used
		if _, ok := p.cc.idx.Lookup(pv); !ok {
			p.cc.idx.Insert(pv, lo)
		}
		return used, true
	}
	return used, false
}

// Cracks returns the number of cracks in the index (tests/metrics).
func (p *ProgressiveStochastic) Cracks() int { return p.cc.idx.Size() }
