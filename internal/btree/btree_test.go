package btree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/column"
)

func sortedRandom(rng *rand.Rand, n, domain int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(domain))
	}
	slices.Sort(vals)
	return vals
}

func TestBuildRejectsBadFanout(t *testing.T) {
	if _, err := NewBuilder([]int64{1, 2, 3}, 1); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	if _, err := NewBuilder([]int64{1, 2, 3}, 0); err == nil {
		t.Fatal("fanout 0 accepted")
	}
}

func TestBuildTinyArray(t *testing.T) {
	// Arrays smaller than one node need no upper levels at all.
	tr, err := Build([]int64{5, 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d, want 1", tr.Height())
	}
	if got := tr.LowerBound(6); got != 1 {
		t.Fatalf("LowerBound(6) = %d, want 1", got)
	}
	if got := tr.AggRange(5, 7, column.AggSum|column.AggCount); got.Sum != 12 || got.Count != 2 {
		t.Fatalf("AggRange = %+v", got)
	}
}

func TestLowerBoundMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, fanout := range []int{2, 4, 16, 64} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(3000)
			vals := sortedRandom(rng, n, 500)
			tr, err := Build(vals, fanout)
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 50; q++ {
				v := int64(rng.Intn(520)) - 10
				got := tr.LowerBound(v)
				want := column.LowerBound(vals, v)
				if got != want {
					t.Fatalf("fanout=%d n=%d LowerBound(%d) = %d, want %d", fanout, n, v, got, want)
				}
				gotU := tr.UpperBound(v)
				wantU := column.UpperBound(vals, v)
				if gotU != wantU {
					t.Fatalf("fanout=%d n=%d UpperBound(%d) = %d, want %d", fanout, n, v, gotU, wantU)
				}
			}
		}
	}
}

func TestSumRangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := sortedRandom(rng, 5000, 1000)
	tr, err := Build(vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 200; q++ {
		lo := int64(rng.Intn(1100)) - 50
		hi := lo + int64(rng.Intn(300))
		got := tr.AggRange(lo, hi, column.AggSum|column.AggCount).Result()
		want := column.SumRange(vals, lo, hi)
		if got != want {
			t.Fatalf("AggRange(%d,%d) = %+v, want %+v", lo, hi, got, want)
		}
	}
}

// Property: for arbitrary sorted arrays and query values, the tree's
// lower bound equals the plain binary search.
func TestLowerBoundProperty(t *testing.T) {
	f := func(raw []int16, probe int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		slices.Sort(vals)
		tr, err := Build(vals, 4)
		if err != nil {
			return false
		}
		return tr.LowerBound(int64(probe)) == column.LowerBound(vals, int64(probe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderIncrementalMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vals := sortedRandom(rng, 10_000, 100_000)

	oneShot, err := Build(vals, 8)
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewBuilder(vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	steps := 0
	for !b.Done() {
		total += b.Step(97) // deliberately awkward budget
		steps++
		if steps > 1_000_000 {
			t.Fatal("builder did not terminate")
		}
	}
	if total != b.TotalCopies() {
		t.Fatalf("performed %d copies, expected %d", total, b.TotalCopies())
	}
	tr := b.Tree()
	if tr == nil {
		t.Fatal("Tree() nil after Done")
	}
	if tr.Height() != oneShot.Height() {
		t.Fatalf("height %d != one-shot height %d", tr.Height(), oneShot.Height())
	}
	for q := 0; q < 100; q++ {
		v := int64(rng.Intn(110_000))
		if tr.LowerBound(v) != oneShot.LowerBound(v) {
			t.Fatalf("incremental tree disagrees with one-shot at %d", v)
		}
	}
}

func TestBuilderStepBudgetRespected(t *testing.T) {
	vals := sortedRandom(rand.New(rand.NewSource(17)), 4096, 1000)
	b, err := NewBuilder(vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	for !b.Done() {
		if got := b.Step(10); got > 10 {
			t.Fatalf("Step(10) performed %d copies", got)
		}
	}
	if b.Step(10) != 0 {
		t.Fatal("Step after Done must do no work")
	}
	if b.Step(0) != 0 {
		t.Fatal("Step(0) must do no work")
	}
}

func TestTreeNilBeforeDone(t *testing.T) {
	vals := sortedRandom(rand.New(rand.NewSource(19)), 4096, 1000)
	b, _ := NewBuilder(vals, 4)
	if b.Tree() != nil {
		t.Fatal("Tree() must be nil before the build completes")
	}
}

func TestDuplicateHeavyKeys(t *testing.T) {
	vals := make([]int64, 2048)
	for i := range vals {
		vals[i] = int64(i / 512) // long runs of equal keys
	}
	tr, err := Build(vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(-1); v <= 4; v++ {
		if got, want := tr.LowerBound(v), column.LowerBound(vals, v); got != want {
			t.Fatalf("LowerBound(%d) = %d, want %d", v, got, want)
		}
	}
	r := tr.AggRange(1, 2, column.AggSum|column.AggCount)
	if r.Count != 1024 {
		t.Fatalf("AggRange(1,2).Count = %d, want 1024", r.Count)
	}
}
