package column

import (
	"encoding/binary"
	"testing"
)

// withoutVector runs f on the Go loops, the path every CPU without AVX2
// takes, and then restores the choice made at start-up.
func withoutVector(f func()) {
	defer func(on bool) { vector = on }(vector)
	vector = false
	f()
}

// benchPaths runs f as name/vector on the vector kernels, where the CPU
// has them, and as name/scalar on the Go loops.
func benchPaths(b *testing.B, name string, f func(*testing.B)) {
	if vector {
		b.Run(name+"/vector", f)
	}
	b.Run(name+"/scalar", func(b *testing.B) { withoutVector(func() { f(b) }) })
}

// TestKernelsWithoutVector reruns the kernel tests on the Go loops, so
// the fallback stays covered on a host that has AVX2.
func TestKernelsWithoutVector(t *testing.T) {
	if !vector {
		t.Skip("no AVX2 on this CPU: every test already ran the Go loops")
	}
	for _, k := range []struct {
		name string
		test func(*testing.T)
	}{
		{"SumRangeBasic", TestSumRangeBasic},
		{"SumRangeInclusiveBounds", TestSumRangeInclusiveBounds},
		{"SumRangeNegativeValues", TestSumRangeNegativeValues},
		{"SumRangePredicationMatchesBranching", TestSumRangePredicationMatchesBranching},
		{"SumSortedMatchesScan", TestSumSortedMatchesScan},
		{"AggRangeMatchesBranchingOracle", TestAggRangeMatchesBranchingOracle},
		{"AggSortedMatchesBranchingOracle", TestAggSortedMatchesBranchingOracle},
		{"ParKernelsMatchBranchingOracle", TestParKernelsMatchBranchingOracle},
		{"ParAggRangeMatchesSerialBitForBit", TestParAggRangeMatchesSerialBitForBit},
		{"AggFullMatchesAggRange", TestAggFullMatchesAggRange},
		{"SumRangeAllocatesNothing", TestSumRangeAllocatesNothing},
	} {
		t.Run(k.name, func(t *testing.T) { withoutVector(func() { k.test(t) }) })
	}
}

func TestSumRangeAllocatesNothing(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	var sink Result
	if n := testing.AllocsPerRun(100, func() { sink = SumRange(vals[3:], 100, 700) }); n != 0 {
		t.Fatalf("SumRange allocates %.0f times a call", n)
	}
	if sink.Count != 601 {
		t.Fatalf("SumRange counted %d rows, want 601", sink.Count)
	}
}

// FuzzSumRange holds SumRange on the vector path (where the CPU has it)
// and on the Go loops to the branching kernel: rows of any int64 value,
// runs of 0–67 rows starting 0–7 rows into the input (so the vector
// prefix is every multiple of 8, at every alignment, beside every tail
// length), and any bounds, inverted, equal and the domain's edges among
// them. The corpus under testdata/fuzz/FuzzSumRange runs on every plain
// `go test`.
func FuzzSumRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64, skip uint8) {
		rows := make([]int64, len(data)/8)
		for i := range rows {
			rows[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		rows = rows[min(int(skip%8), len(rows)):]
		rows = rows[:min(len(rows), 67)]
		want := SumRangeBranching(rows, lo, hi)
		got := SumRange(rows, lo, hi)
		var scalar Result
		withoutVector(func() { scalar = SumRange(rows, lo, hi) })
		if got != want || scalar != want {
			t.Fatalf("%d rows, [%d, %d]: SumRange %+v, on the Go loops %+v, branching %+v", len(rows), lo, hi, got, scalar, want)
		}
	})
}
