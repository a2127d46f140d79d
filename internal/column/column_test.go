package column

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	if _, err := New(nil); err != ErrEmpty {
		t.Fatalf("New(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := New([]int64{}); err != ErrEmpty {
		t.Fatalf("New([]) err = %v, want ErrEmpty", err)
	}
}

func TestNewRejectsHugeMagnitudes(t *testing.T) {
	// The bound is exclusive: at exactly ±2^62 the kernels' v-lo / hi-v
	// subtractions can hit 2^63 and wrap, so those values are rejected.
	if _, err := New([]int64{MaxMagnitude}); err == nil {
		t.Fatal("New accepted value = 2^62")
	}
	if _, err := New([]int64{-MaxMagnitude}); err == nil {
		t.Fatal("New accepted value = -2^62")
	}
	if _, err := New([]int64{MaxMagnitude - 1, -MaxMagnitude + 1}); err != nil {
		t.Fatalf("New rejected in-domain extremes: %v", err)
	}
	// The extreme in-domain values must round-trip through the kernels.
	got := SumRange([]int64{MaxMagnitude - 1, 0, -MaxMagnitude + 1}, -MaxMagnitude+1, MaxMagnitude-1)
	if got.Count != 3 {
		t.Fatalf("extreme-domain scan lost rows: %+v", got)
	}
	agg := AggRange([]int64{MaxMagnitude - 1, 0, -MaxMagnitude + 1}, -MaxMagnitude+1, MaxMagnitude-1, AggAll)
	if agg.Count != 3 || agg.Min != -MaxMagnitude+1 || agg.Max != MaxMagnitude-1 {
		t.Fatalf("extreme-domain aggregate wrong: %+v", agg)
	}
}

func TestZoneStats(t *testing.T) {
	c := MustNew([]int64{5, -3, 12, 0, 12, -3})
	if c.Min() != -3 || c.Max() != 12 {
		t.Fatalf("min/max = %d/%d, want -3/12", c.Min(), c.Max())
	}
	if c.Len() != 6 {
		t.Fatalf("Len = %d, want 6", c.Len())
	}
}

func TestSumRangeBasic(t *testing.T) {
	vals := []int64{1, 6, 3, 14, 13, 2, 8, 19, 7, 12, 11, 4, 16, 9}
	cases := []struct {
		lo, hi   int64
		sum, cnt int64
	}{
		{1, 19, 125, 14}, // everything
		{5, 5, 0, 0},     // empty match
		{6, 6, 6, 1},     // point query
		{4, 9, 6 + 8 + 7 + 4 + 9, 5},
		{20, 30, 0, 0}, // above domain
		{-5, 0, 0, 0},  // below domain
		{13, 19, 14 + 13 + 19 + 16, 4},
	}
	for _, tc := range cases {
		got := SumRange(vals, tc.lo, tc.hi)
		if got.Sum != tc.sum || got.Count != tc.cnt {
			t.Errorf("SumRange(%d,%d) = %+v, want sum=%d count=%d", tc.lo, tc.hi, got, tc.sum, tc.cnt)
		}
	}
}

func TestSumRangeInclusiveBounds(t *testing.T) {
	vals := []int64{10, 20, 30}
	r := SumRange(vals, 10, 30)
	if r.Sum != 60 || r.Count != 3 {
		t.Fatalf("bounds must be inclusive on both ends, got %+v", r)
	}
	r = SumRange(vals, 11, 29)
	if r.Sum != 20 || r.Count != 1 {
		t.Fatalf("exclusive interior got %+v", r)
	}
}

func TestSumRangeNegativeValues(t *testing.T) {
	vals := []int64{-10, -5, 0, 5, 10}
	r := SumRange(vals, -7, 6)
	if r.Sum != 0 || r.Count != 3 { // -5 + 0 + 5
		t.Fatalf("got %+v, want sum=0 count=3", r)
	}
}

// Property: the predicated kernels agree with the branching oracles for
// arbitrary data and bounds within the supported magnitude — inverted
// bounds (empty, which the unsigned compare needs a guard for), equal
// ones, and the extremes of the domain, where the span hi-lo is one short
// of wrapping.
func TestSumRangePredicationMatchesBranching(t *testing.T) {
	agree := func(vals []int64, lo, hi int64) bool {
		return SumRange(vals, lo, hi) == SumRangeBranching(vals, lo, hi) &&
			AggRange(vals, lo, hi, AggAll) == AggRangeBranching(vals, lo, hi)
	}
	f := func(raw []int64, a, b int64) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = v % MaxMagnitude
		}
		lo, hi := a%MaxMagnitude, b%MaxMagnitude
		ok := agree(vals, lo, hi) && agree(vals, hi, lo) && agree(vals, lo, lo)
		if len(vals) > 0 {
			ok = ok && agree(vals, vals[0], vals[0]) && agree(vals, vals[0], hi) && agree(vals, lo, vals[0])
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	const top = MaxMagnitude - 1
	edge := []int64{-top, -top + 1, -1, 0, 1, top - 1, top}
	for _, lo := range edge {
		for _, hi := range edge {
			if !agree(edge, lo, hi) {
				t.Fatalf("[%d, %d]: SumRange %+v, AggRange %+v, oracle %+v", lo, hi,
					SumRange(edge, lo, hi), AggRange(edge, lo, hi, AggAll), AggRangeBranching(edge, lo, hi))
			}
		}
	}
}

// Property: the SUM/COUNT of a sorted run (AggSorted, the converged
// regions' kernel) agrees with the predicated kernel on sorted data.
func TestSumSortedMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(500)
		vals := make([]int64, n)
		v := int64(-250)
		for i := range vals {
			v += int64(rng.Intn(5)) // sorted, with duplicates
			vals[i] = v
		}
		lo := int64(rng.Intn(600)) - 300
		hi := lo + int64(rng.Intn(200))
		got := AggSorted(vals, lo, hi, AggSum|AggCount).Result()
		want := SumRange(vals, lo, hi)
		if got != want {
			t.Fatalf("trial %d: AggSorted(%d,%d) = %+v, want %+v", trial, lo, hi, got, want)
		}
	}
}

func TestBounds(t *testing.T) {
	sorted := []int64{1, 3, 3, 3, 7, 9}
	if got := LowerBound(sorted, 3); got != 1 {
		t.Errorf("LowerBound(3) = %d, want 1", got)
	}
	if got := UpperBound(sorted, 3); got != 4 {
		t.Errorf("UpperBound(3) = %d, want 4", got)
	}
	if got := LowerBound(sorted, 0); got != 0 {
		t.Errorf("LowerBound(0) = %d, want 0", got)
	}
	if got := UpperBound(sorted, 10); got != 6 {
		t.Errorf("UpperBound(10) = %d, want 6", got)
	}
	if got := LowerBound(sorted, 4); got != 4 {
		t.Errorf("LowerBound(4) = %d, want 4", got)
	}
}

func TestAggRangeMatchesBranchingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	masks := []Aggregates{AggSum | AggCount, AggAll, AggMin | AggCount, AggMax | AggCount}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(2000) - 1000
		}
		lo := rng.Int63n(2400) - 1200
		hi := lo + rng.Int63n(800) - 100 // sometimes inverted (empty)
		want := AggRangeBranching(vals, lo, hi)
		for _, m := range masks {
			got := AggRange(vals, lo, hi, m)
			if got.Sum != want.Sum || got.Count != want.Count {
				t.Fatalf("AggRange(%v) sum/count: got %+v want %+v", m, got, want)
			}
			if m.NeedsMinMax() && (got.Min != want.Min || got.Max != want.Max) {
				t.Fatalf("AggRange(%v) min/max: got %+v want %+v", m, got, want)
			}
		}
	}
}

func TestAggSortedMatchesBranchingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		vals := make([]int64, n)
		v := rng.Int63n(100) - 500
		for i := range vals {
			vals[i] = v
			v += rng.Int63n(5)
		}
		lo := rng.Int63n(1200) - 600
		hi := lo + rng.Int63n(400) - 50
		want := AggRangeBranching(vals, lo, hi)
		got := AggSorted(vals, lo, hi, AggAll)
		if got != want {
			t.Fatalf("AggSorted: got %+v want %+v", got, want)
		}
		// Without SUM requested, the matching run is never scanned but
		// COUNT/MIN/MAX must still be exact.
		cheap := AggSorted(vals, lo, hi, AggCount|AggMin|AggMax)
		if cheap.Count != want.Count || cheap.Min != want.Min || cheap.Max != want.Max {
			t.Fatalf("AggSorted cheap: got %+v want %+v", cheap, want)
		}
	}
}

func TestAggMergeAndSentinels(t *testing.T) {
	empty := NewAgg()
	if empty.Count != 0 {
		t.Fatal("fresh accumulator must be empty")
	}
	a := AggRangeBranching([]int64{5, -3}, -10, 10)
	b := NewAgg()
	b.Merge(a) // merging into empty must adopt a's extrema
	if b != a {
		t.Fatalf("merge into empty: got %+v want %+v", b, a)
	}
	a.Merge(empty) // merging an empty accumulator must be a no-op
	if a.Min != -3 || a.Max != 5 || a.Count != 2 || a.Sum != 2 {
		t.Fatalf("merge of empty changed result: %+v", a)
	}
	if r := a.Result(); r.Sum != 2 || r.Count != 2 {
		t.Fatalf("Result projection: %+v", r)
	}
}

func TestAggregatesNormalizeAndString(t *testing.T) {
	if got := Aggregates(0).Normalize(); got != AggSum|AggCount {
		t.Fatalf("zero mask normalizes to %v", got)
	}
	if got := AggAvg.Normalize(); !got.Has(AggSum) || !got.Has(AggCount) {
		t.Fatalf("AVG must pull in SUM and COUNT, got %v", got)
	}
	if got := AggMin.Normalize(); !got.Has(AggCount) {
		t.Fatalf("COUNT must always be carried, got %v", got)
	}
	if (AggSum | AggMax).String() != "SUM|MAX" {
		t.Fatalf("String: %q", (AggSum | AggMax).String())
	}
	if !AggAll.Valid() || Aggregates(0x80).Valid() {
		t.Fatal("Valid() mislabels masks")
	}
}

// TestNewWithStats pins the trusted-stats constructor used by the
// shard partitioner: it must accept caller-computed extrema without
// re-scanning, and reject the same malformed inputs New would.
func TestNewWithStats(t *testing.T) {
	vals := []int64{5, -3, 9}
	c, err := NewWithStats(vals, -3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if c.Min() != -3 || c.Max() != 9 || c.Len() != 3 {
		t.Fatalf("stats not adopted: min=%d max=%d len=%d", c.Min(), c.Max(), c.Len())
	}
	if r := c.Sum(-3, 9); r.Sum != 11 || r.Count != 3 {
		t.Fatalf("Sum over adopted domain = %+v", r)
	}
	if _, err := NewWithStats(nil, 0, 0); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := NewWithStats(vals, 9, -3); err == nil {
		t.Fatal("inverted stats accepted")
	}
	if _, err := NewWithStats(vals, -MaxMagnitude, 9); err == nil {
		t.Fatal("out-of-magnitude min accepted")
	}
	if _, err := NewWithStats(vals, -3, MaxMagnitude); err == nil {
		t.Fatal("out-of-magnitude max accepted")
	}
}
