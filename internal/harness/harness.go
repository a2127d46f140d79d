// Package harness runs query workloads against indexes and computes
// the metrics of the paper's evaluation (Section 4.4): first-query
// cost, queries until convergence, robustness (variance of the first
// 100 query times) and cumulative response time, plus the pay-off query
// of Figure 7b and the measured-vs-predicted series of Figures 8-10.
package harness

import (
	"fmt"
	"time"

	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

// Run is the recorded outcome of executing one workload against one
// index.
type Run struct {
	Name    string
	Times   []float64 // measured seconds per query
	Results []column.Result
	// Predicted and Phases hold the cost-model prediction and lifecycle
	// phase of every query, from the Stats inline in its Answer (zero
	// for an index without a cost model: the baselines predict nothing).
	Predicted []float64
	Phases    []core.Phase
	// ConvergedAt is the 0-based query number after which Converged()
	// first reported true, or -1.
	ConvergedAt int
}

// Options configures Execute.
type Options struct {
	// Verify, when non-nil, checks every answer against a brute-force
	// scan of this column and fails fast on a mismatch.
	Verify *column.Column
	// MaxQueries caps the number of executed queries (0 = all).
	MaxQueries int
	// StopAfterConverged executes this many extra queries after
	// convergence and then stops early (0 = run everything). It keeps
	// δ-sweep experiments affordable without changing any metric other
	// than cutting the post-convergence tail, where per-query cost is
	// constant.
	StopAfterConverged int
}

// Query aliases workload.Query so generator output feeds the harness
// directly.
type Query = workload.Query

// ExecuteQueries runs qs in order against idx, timing every call.
func ExecuteQueries(idx query.Index, qs []Query, opts Options) (*Run, error) {
	n := len(qs)
	if opts.MaxQueries > 0 && opts.MaxQueries < n {
		n = opts.MaxQueries
	}
	run := &Run{
		Name:        idx.Name(),
		Times:       make([]float64, 0, n),
		Results:     make([]column.Result, 0, n),
		Predicted:   make([]float64, 0, n),
		Phases:      make([]core.Phase, 0, n),
		ConvergedAt: -1,
	}
	sinceConverged := 0
	for i := 0; i < n; i++ {
		q := qs[i]
		start := time.Now()
		ans, err := idx.Execute(query.Request{Pred: query.Range(q.Lo, q.Hi)})
		if err != nil {
			return nil, fmt.Errorf("harness: %s query %d: %w", idx.Name(), i, err)
		}
		run.Times = append(run.Times, time.Since(start).Seconds())
		res := ans.Result()
		run.Results = append(run.Results, res)
		run.Predicted = append(run.Predicted, ans.Stats.Predicted)
		run.Phases = append(run.Phases, ans.Stats.Phase)
		if opts.Verify != nil {
			want := column.SumRange(opts.Verify.Values(), q.Lo, q.Hi)
			if res != want {
				return nil, fmt.Errorf("harness: %s query %d [%d,%d]: got %+v, want %+v",
					idx.Name(), i, q.Lo, q.Hi, res, want)
			}
		}
		if idx.Converged() {
			if run.ConvergedAt < 0 {
				run.ConvergedAt = i
			}
			sinceConverged++
			if opts.StopAfterConverged > 0 && sinceConverged >= opts.StopAfterConverged {
				break
			}
		}
	}
	return run, nil
}

// FirstQuery returns the measured time of the first query.
func (r *Run) FirstQuery() float64 {
	if len(r.Times) == 0 {
		return 0
	}
	return r.Times[0]
}

// Cumulative returns the total measured time.
func (r *Run) Cumulative() float64 {
	total := 0.0
	for _, t := range r.Times {
		total += t
	}
	return total
}

// Robustness is the paper's robustness metric: the variance of the
// first 100 query times (population variance, seconds²).
func (r *Run) Robustness() float64 {
	return Variance(r.Times, 100)
}

// Variance computes the population variance of the first k samples.
func Variance(xs []float64, k int) float64 {
	if k > len(xs) {
		k = len(xs)
	}
	if k == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range xs[:k] {
		mean += x
	}
	mean /= float64(k)
	v := 0.0
	for _, x := range xs[:k] {
		d := x - mean
		v += d * d
	}
	return v / float64(k)
}

// PayoffQuery returns the first query number q for which the cumulative
// index cost is at most (q+1)·scanTime — the Figure 7b metric — or -1
// if the run never pays off.
func (r *Run) PayoffQuery(scanTime float64) int {
	total := 0.0
	for i, t := range r.Times {
		total += t
		if total <= float64(i+1)*scanTime {
			return i
		}
	}
	return -1
}

// MeasureScanTime times a predicated full scan of col (best of reps).
func MeasureScanTime(col *column.Column, reps int) float64 {
	if reps < 1 {
		reps = 1
	}
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		res := col.Sum(col.Min(), col.Max())
		d := time.Since(start).Seconds()
		if res.Count != int64(col.Len()) {
			// Impossible unless the column is corrupt; keep the check
			// so the timing loop cannot be optimized away.
			panic("harness: full scan lost rows")
		}
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}
