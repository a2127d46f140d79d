package core

import (
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/query"
)

// TestWorkerCountInvariance is the end-to-end determinism guarantee of
// the parallel engine: for every algorithm, every query of a workload
// run with 2, 3 and 7 workers returns exactly the answer the 1-worker
// (serial) run returns — through creation, refinement, consolidation
// and convergence. The data is sized so that creation segments exceed
// the parallel cutoff (n·δ > 2·minChunkCreate) and tail scans exceed
// MinChunkScan, so the parallel code paths really execute even though
// the CI host may have a single core.
func TestWorkerCountInvariance(t *testing.T) {
	const n = 260_000
	rng := rand.New(rand.NewSource(77))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(n) - n/2
	}

	type mk func(c *column.Column, cfg Config) query.Index
	algos := []struct {
		name string
		mk   mk
	}{
		{"PQ", func(c *column.Column, cfg Config) query.Index { return NewQuicksort(c, cfg) }},
		{"PMSD", func(c *column.Column, cfg Config) query.Index { return NewRadixMSD(c, cfg) }},
		{"PB", func(c *column.Column, cfg Config) query.Index { return NewBucketsort(c, cfg) }},
		{"PLSD", func(c *column.Column, cfg Config) query.Index { return NewRadixLSD(c, cfg) }},
	}

	// Pre-generate the query sequence: random ranges of varying width
	// plus a few edge shapes, repeated long enough to converge at δ=¼.
	type qr struct{ lo, hi int64 }
	qrng := rand.New(rand.NewSource(99))
	var queries []qr
	for i := 0; i < 60; i++ {
		a := qrng.Int63n(n) - n/2
		b := a + qrng.Int63n(n/4)
		queries = append(queries, qr{a, b})
	}
	queries = append(queries, qr{-n / 2, n / 2}, qr{0, 0}, qr{5, 4})

	for _, al := range algos {
		col := column.MustNew(vals)
		serial := al.mk(col, Config{Mode: FixedDelta, Delta: 0.25, Workers: 1})
		pars := make([]query.Index, 0, 3)
		parWorkers := []int{2, 3, 7}
		for _, w := range parWorkers {
			pars = append(pars, al.mk(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.25, Workers: w}))
		}
		for qi, q := range queries {
			req := query.Request{Pred: query.Range(q.lo, q.hi), Aggs: column.AggAll}
			want, err := serial.Execute(req)
			if err != nil {
				t.Fatalf("%s serial q%d: %v", al.name, qi, err)
			}
			for pi, par := range pars {
				got, err := par.Execute(req)
				if err != nil {
					t.Fatalf("%s workers=%d q%d: %v", al.name, parWorkers[pi], qi, err)
				}
				if got.Sum != want.Sum || got.Count != want.Count ||
					got.Min != want.Min || got.Max != want.Max || got.Avg != want.Avg {
					t.Fatalf("%s workers=%d q%d [%d,%d]: got (sum=%d count=%d min=%d max=%d), want (sum=%d count=%d min=%d max=%d) in phase %v/%v",
						al.name, parWorkers[pi], qi, q.lo, q.hi,
						got.Sum, got.Count, got.Min, got.Max,
						want.Sum, want.Count, want.Min, want.Max,
						got.Stats.Phase, want.Stats.Phase)
				}
				if got.Stats.Phase != want.Stats.Phase {
					t.Fatalf("%s workers=%d q%d: phase %v, serial phase %v — lockstep broken",
						al.name, parWorkers[pi], qi, got.Stats.Phase, want.Stats.Phase)
				}
				if got.Stats.Workers != parWorkers[pi] {
					t.Fatalf("%s: Stats.Workers = %d, want %d", al.name, got.Stats.Workers, parWorkers[pi])
				}
			}
		}
	}
}

// TestParallelCreationStepMatchesSerial drives a single large creation
// step (the whole column in one δ=1 query) and cross-checks the
// resulting index against the serial oracle per algorithm.
func TestParallelCreationStepMatchesSerial(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 40)
	}
	for _, workers := range []int{2, 7} {
		cfgS := Config{Mode: FixedDelta, Delta: 1, Workers: 1}
		cfgP := Config{Mode: FixedDelta, Delta: 1, Workers: workers}
		pairs := []struct {
			name string
			s, p query.Index
		}{
			{"PQ", NewQuicksort(column.MustNew(vals), cfgS), NewQuicksort(column.MustNew(vals), cfgP)},
			{"PMSD", NewRadixMSD(column.MustNew(vals), cfgS), NewRadixMSD(column.MustNew(vals), cfgP)},
			{"PB", NewBucketsort(column.MustNew(vals), cfgS), NewBucketsort(column.MustNew(vals), cfgP)},
			{"PLSD", NewRadixLSD(column.MustNew(vals), cfgS), NewRadixLSD(column.MustNew(vals), cfgP)},
		}
		for _, pr := range pairs {
			// One full-δ creation query, then probing queries against both.
			for i := 0; i < 30; i++ {
				lo := int64(i) * (1 << 40) / 30
				hi := lo + (1 << 36)
				rs := sumCount(pr.s, lo, hi)
				rp := sumCount(pr.p, lo, hi)
				if rs != rp {
					t.Fatalf("%s workers=%d probe %d: serial %+v, parallel %+v", pr.name, workers, i, rs, rp)
				}
			}
		}
	}
}
