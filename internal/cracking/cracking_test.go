package cracking

import (
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/oracle"
	"repro/internal/query"
)

// sumCount answers SUM/COUNT over the inclusive range [lo, hi] through
// Execute.
func sumCount(idx query.Index, lo, hi int64) column.Result {
	ans, err := idx.Execute(query.Request{Pred: query.Range(lo, hi)})
	if err != nil {
		panic(err)
	}
	return ans.Result()
}

func randomValues(rng *rand.Rand, n int, domain int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

// crackIndex is the common surface of all five baselines.
type crackIndex interface {
	query.Index
	Cracks() int
}

var makers = []struct {
	name string
	make func(*column.Column, Config) crackIndex
}{
	{"STD", func(c *column.Column, cfg Config) crackIndex { return NewStandard(c, cfg) }},
	{"STC", func(c *column.Column, cfg Config) crackIndex { return NewStochastic(c, cfg) }},
	{"PSTC", func(c *column.Column, cfg Config) crackIndex { return NewProgressiveStochastic(c, cfg) }},
	{"CGI", func(c *column.Column, cfg Config) crackIndex { return NewCoarseGranular(c, cfg) }},
	{"AA", func(c *column.Column, cfg Config) crackIndex { return NewAdaptiveAdaptive(c, cfg) }},
}

// All five baselines must answer every query exactly, on random and
// adversarial workloads, with invariants holding throughout.
func TestAllCrackersAlwaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, domain = 20_000, 1 << 20
	vals := randomValues(rng, n, domain)
	col := column.MustNew(vals)
	for _, mk := range makers {
		idx := mk.make(col, Config{Seed: 7, L2Elements: 1024, SwapFraction: 0.1})
		for qn := 0; qn < 500; qn++ {
			var lo, hi int64
			switch rng.Intn(3) {
			case 0:
				lo = vals[rng.Intn(n)]
				hi = lo
			case 1:
				lo = rng.Int63n(domain)
				hi = lo + rng.Int63n(domain/10)
			default:
				lo = rng.Int63n(domain) - 10
				hi = lo + rng.Int63n(domain)
			}
			got := sumCount(idx, lo, hi)
			if want := oracle.Agg(vals, query.Range(lo, hi)).Result(); got != want {
				t.Fatalf("%s query #%d [%d,%d]: got %+v want %+v", mk.name, qn, lo, hi, got, want)
			}
		}
		if idx.Converged() {
			t.Fatalf("%s claims convergence; cracking never converges", mk.name)
		}
	}
}

func TestCrackerInvariantsHold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, domain = 10_000, 1 << 16
	vals := randomValues(rng, n, domain)
	col := column.MustNew(vals)
	checkers := map[string]func(crackIndex) *crackerColumn{
		"STD":  func(i crackIndex) *crackerColumn { return &i.(*Standard).cc },
		"STC":  func(i crackIndex) *crackerColumn { return &i.(*Stochastic).cc },
		"PSTC": func(i crackIndex) *crackerColumn { return &i.(*ProgressiveStochastic).cc },
		"CGI":  func(i crackIndex) *crackerColumn { return &i.(*CoarseGranular).cc },
		"AA":   func(i crackIndex) *crackerColumn { return &i.(*AdaptiveAdaptive).cc },
	}
	for _, mk := range makers {
		idx := mk.make(col, Config{Seed: 3, L2Elements: 512})
		for qn := 0; qn < 100; qn++ {
			lo := rng.Int63n(domain)
			hi := lo + rng.Int63n(domain/8)
			sumCount(idx, lo, hi)
			if qn%10 == 0 {
				if !checkers[mk.name](idx).checkInvariants() {
					t.Fatalf("%s: crack invariants violated after query %d", mk.name, qn)
				}
			}
		}
	}
}

func TestStandardCrackingConvergesLocally(t *testing.T) {
	// Repeating the same query must make it cheap: after the first
	// crack, the exact bounds exist and the answer is a direct sum.
	rng := rand.New(rand.NewSource(3))
	vals := randomValues(rng, 50_000, 1<<20)
	col := column.MustNew(vals)
	idx := NewStandard(col, Config{})
	first := sumCount(idx, 1000, 500_000)
	for i := 0; i < 10; i++ {
		if got := sumCount(idx, 1000, 500_000); got != first {
			t.Fatalf("repeat query changed answer: %+v vs %+v", got, first)
		}
	}
	if idx.Cracks() != 2 {
		t.Fatalf("repeated identical query should add exactly 2 cracks, have %d", idx.Cracks())
	}
}

func TestStandardSequentialWorkloadManyCracks(t *testing.T) {
	// The sequential pattern that hurts cracking: each query shifts
	// right, so every query cracks a huge unindexed piece.
	rng := rand.New(rand.NewSource(4))
	const n = 50_000
	vals := randomValues(rng, n, n)
	col := column.MustNew(vals)
	idx := NewStandard(col, Config{})
	for q := 0; q < 100; q++ {
		lo := int64(q * 400)
		sumCount(idx, lo, lo+400)
	}
	if idx.Cracks() < 100 {
		t.Fatalf("sequential workload should leave many cracks, have %d", idx.Cracks())
	}
}

func TestStochasticDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := randomValues(rng, 10_000, 1<<16)
	col := column.MustNew(vals)
	run := func() []int64 {
		idx := NewStochastic(col, Config{Seed: 42})
		var sums []int64
		for q := 0; q < 50; q++ {
			lo := int64(q * 100)
			sums = append(sums, sumCount(idx, lo, lo+5000).Sum)
		}
		return sums
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stochastic cracking not reproducible with fixed seed at query %d", i)
		}
	}
}

func TestPSTCRespectsSwapAllowance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 100_000
	vals := randomValues(rng, n, 1<<20)
	col := column.MustNew(vals)
	idx := NewProgressiveStochastic(col, Config{Seed: 9, SwapFraction: 0.05})
	prevSwaps := 0
	for q := 0; q < 50; q++ {
		lo := rng.Int63n(1 << 20)
		sumCount(idx, lo, lo+1<<15)
		delta := idx.cc.swaps - prevSwaps
		prevSwaps = idx.cc.swaps
		// Allowance is 5% of n = 5000 swaps for the random cracks, plus
		// the approximated exact cracks of sub-L2 pieces.
		if delta > int(0.05*float64(n))+idx.cfg.L2Elements {
			t.Fatalf("query %d performed %d swaps, allowance is %d", q, delta, int(0.05*float64(n)))
		}
	}
}

func TestPSTCJobsResumeAcrossQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200_000
	vals := randomValues(rng, n, 1<<20)
	col := column.MustNew(vals)
	idx := NewProgressiveStochastic(col, Config{Seed: 1, SwapFraction: 0.01})
	sawPending := false
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(1 << 20)
		got := sumCount(idx, lo, lo+1<<16)
		if want := oracle.Agg(vals, query.Range(lo, lo+1<<16)).Result(); got != want {
			t.Fatalf("query %d with pending jobs wrong: got %+v want %+v", q, got, want)
		}
		if len(idx.jobs) > 0 {
			sawPending = true
		}
	}
	if !sawPending {
		t.Fatal("swap fraction 1% on 200k column should leave cracks paused across queries")
	}
}

func TestCGIFirstQueryPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vals := randomValues(rng, 50_000, 1<<20)
	col := column.MustNew(vals)
	idx := NewCoarseGranular(col, Config{Partitions: 64})
	sumCount(idx, 5, 10)
	if idx.Cracks() < 32 {
		t.Fatalf("CGI first query should create ~63 partition cracks, have %d", idx.Cracks())
	}
	if !idx.cc.checkInvariants() {
		t.Fatal("CGI partition violated crack invariants")
	}
}

func TestAACreatesBoundedPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 100_000
	vals := randomValues(rng, n, 1<<20)
	col := column.MustNew(vals)
	idx := NewAdaptiveAdaptive(col, Config{L2Elements: 2048})
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(1 << 20)
		got := sumCount(idx, lo, lo+1<<14)
		if want := oracle.Agg(vals, query.Range(lo, lo+1<<14)).Result(); got != want {
			t.Fatalf("AA query %d wrong: got %+v want %+v", q, got, want)
		}
	}
	// After 200 queries, boundary pieces should have been refined well
	// below the initial n/64 partition size.
	if idx.Cracks() < 100 {
		t.Fatalf("AA should accumulate radix-refinement cracks, have %d", idx.Cracks())
	}
}

func TestCrackersOnSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n = 20_000
	vals := make([]int64, n)
	for i := range vals {
		if rng.Intn(10) == 0 {
			vals[i] = rng.Int63n(n)
		} else {
			vals[i] = int64(n/2-n/20) + rng.Int63n(int64(n/10))
		}
	}
	col := column.MustNew(vals)
	for _, mk := range makers {
		idx := mk.make(col, Config{Seed: 11, L2Elements: 512})
		for q := 0; q < 300; q++ {
			lo := rng.Int63n(int64(n))
			hi := lo + rng.Int63n(int64(n/5))
			got := sumCount(idx, lo, hi)
			if want := oracle.Agg(vals, query.Range(lo, hi)).Result(); got != want {
				t.Fatalf("%s on skewed data, query %d: got %+v want %+v", mk.name, q, got, want)
			}
		}
	}
}

func TestCrackersDuplicateHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(rng.Intn(4))
	}
	col := column.MustNew(vals)
	for _, mk := range makers {
		idx := mk.make(col, Config{Seed: 12})
		for q := 0; q < 100; q++ {
			lo := int64(rng.Intn(5)) - 1
			hi := lo + int64(rng.Intn(4))
			got := sumCount(idx, lo, hi)
			if want := oracle.Agg(vals, query.Range(lo, hi)).Result(); got != want {
				t.Fatalf("%s duplicates query %d [%d,%d]: got %+v want %+v", mk.name, q, lo, hi, got, want)
			}
		}
	}
}
