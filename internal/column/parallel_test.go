package column

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// oracle inputs: every shape the parallel kernels must handle —
// empty, single, tiny (below the chunk cutoff), cutoff±1, and inputs
// large enough to split across every tested worker count.
func parallelTestInputs(rng *rand.Rand) map[string][]int64 {
	mk := func(n int, f func(i int) int64) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = f(i)
		}
		return vs
	}
	bound := MaxMagnitude - 1
	return map[string][]int64{
		"empty":       {},
		"single":      {42},
		"tiny":        mk(100, func(i int) int64 { return rng.Int63n(1000) - 500 }),
		"belowCutoff": mk(2*MinChunkScan-1, func(i int) int64 { return rng.Int63n(1 << 30) }),
		"atCutoff":    mk(2*MinChunkScan, func(i int) int64 { return rng.Int63n(1 << 30) }),
		"large":       mk(9*MinChunkScan+17, func(i int) int64 { return rng.Int63n(1<<40) - 1<<39 }),
		"boundary": mk(3*MinChunkScan, func(i int) int64 {
			switch i % 5 {
			case 0:
				return bound
			case 1:
				return -bound
			case 2:
				return 0
			default:
				return rng.Int63n(1<<62-1) - (1<<61 - 1)
			}
		}),
		"constant": mk(4*MinChunkScan, func(i int) int64 { return 7 }),
	}
}

// TestParKernelsMatchBranchingOracle asserts ParAggRange exactly
// matches the serial branching oracle (AggRangeBranching) for every
// worker count in {1, 2, 3, 7} on every input shape, including
// int64-boundary values at ±(2^62 - 1).
func TestParKernelsMatchBranchingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	inputs := parallelTestInputs(rng)
	bound := MaxMagnitude - 1
	for name, vals := range inputs {
		// Predicate shapes: full domain, empty, half-open-ish, narrow,
		// inverted, single-value.
		preds := [][2]int64{
			{-bound, bound},
			{1, 0},
			{0, bound},
			{-bound, 0},
			{-100, 100},
			{7, 7},
		}
		for i := 0; i < 10; i++ {
			a := rng.Int63n(1<<62-1) - (1<<61 - 1)
			b := a + rng.Int63n(1<<40)
			if b >= MaxMagnitude {
				b = bound
			}
			preds = append(preds, [2]int64{a, b})
		}
		for _, pr := range preds {
			lo, hi := pr[0], pr[1]
			want := AggRangeBranching(vals, lo, hi)
			for _, workers := range []int{1, 2, 3, 7} {
				p := parallel.New(workers)
				got := ParAggRange(p, vals, lo, hi, AggAll)
				if got != want {
					t.Fatalf("%s workers=%d [%d,%d]: ParAggRange = %+v, oracle = %+v",
						name, workers, lo, hi, got, want)
				}
				// SUM|COUNT-only mask takes the fast path; extrema keep
				// their sentinels exactly like serial AggRange.
				gotSC := ParAggRange(p, vals, lo, hi, AggSum|AggCount)
				if gotSC.Sum != want.Sum || gotSC.Count != want.Count {
					t.Fatalf("%s workers=%d [%d,%d]: ParAggRange(SUM|COUNT) = %+v, oracle = %+v",
						name, workers, lo, hi, gotSC, want)
				}
			}
		}
	}
}

// TestParAggRangeMatchesSerialBitForBit compares the parallel kernels
// against the serial predicated kernels (not just the oracle): the
// merge of per-chunk partials must reproduce the serial accumulator
// exactly, including the Min/Max sentinels of empty matches.
func TestParAggRangeMatchesSerialBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for name, vals := range parallelTestInputs(rng) {
		for i := 0; i < 20; i++ {
			lo := rng.Int63n(1<<41) - 1<<40
			hi := lo + rng.Int63n(1<<39)
			serial := AggRange(vals, lo, hi, AggAll)
			serialFull := AggFull(vals, AggAll)
			for _, workers := range []int{2, 3, 7} {
				p := parallel.New(workers)
				if got := ParAggRange(p, vals, lo, hi, AggAll); got != serial {
					t.Fatalf("%s workers=%d: %+v != serial %+v", name, workers, got, serial)
				}
				if got := ParAggFull(p, vals, AggAll); got != serialFull {
					t.Fatalf("%s workers=%d: ParAggFull %+v != serial %+v", name, workers, got, serialFull)
				}
			}
		}
	}
}

// TestAggFullMatchesAggRange pins AggFull (the all-match kernel) to
// the predicated kernel over the full value domain.
func TestAggFullMatchesAggRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = rng.Int63n(1<<30) - 1<<29
	}
	want := AggRange(vals, -(1 << 29), 1<<30, AggAll)
	if got := AggFull(vals, AggAll); got != want {
		t.Fatalf("AggFull = %+v, want %+v", got, want)
	}
	// COUNT-only: no sum computed, count still exact.
	if got := AggFull(vals, AggCount); got.Count != int64(len(vals)) || got.Sum != 0 {
		t.Fatalf("AggFull(COUNT) = %+v", got)
	}
}
