package core

import (
	"math"
	"math/rand"
	"slices"
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
// the fallback stays covered on a host that has AVX2: the same pauses,
// the same arrays and, through the golden, the same answers and stats.
func TestKernelsWithoutVector(t *testing.T) {
	if !vector {
		t.Skip("no AVX2 on this CPU: every test already ran the Go loops")
	}
	for _, k := range []struct {
		name string
		test func(*testing.T)
	}{
		{"PartitionStepsMatchScalar", TestPartitionStepsMatchScalar},
		{"StatsStreamGolden", TestStatsStreamGolden},
		{"AllAlgorithmsAlwaysExact", TestAllAlgorithmsAlwaysExact},
		{"WorkerCountInvariance", TestWorkerCountInvariance},
	} {
		t.Run(k.name, func(t *testing.T) { withoutVector(func() { k.test(t) }) })
	}
}

// TestMisplacedMatchesGo holds the vector block classification to the Go
// loops: the same count and the same first n offsets, from either end,
// on the blocks where a compare is easiest to get wrong.
func TestMisplacedMatchesGo(t *testing.T) {
	if !vector {
		t.Skip("no AVX2 on this CPU: the Go loops are the only path")
	}
	rng := rand.New(rand.NewSource(51))
	fill := func(f func(i int) int64) []int64 {
		blk := make([]int64, partBlock)
		for i := range blk {
			blk[i] = f(i)
		}
		return blk
	}
	blocks := []struct {
		name  string
		blk   []int64
		pivot int64
	}{
		{"allAtMostPivot", fill(func(i int) int64 { return int64(i) }), partBlock},
		{"allAbovePivot", fill(func(i int) int64 { return int64(i) }), -1},
		{"allEqualPivot", fill(func(int) int64 { return 7 }), 7},
		{"pivotMinInt64", fill(func(i int) int64 { return int64(i%3-1) * math.MaxInt64 }), math.MinInt64},
		{"pivotMaxInt64", fill(func(i int) int64 { return []int64{math.MinInt64, math.MaxInt64, 0}[i%3] }), math.MaxInt64},
		{"alternating", fill(func(i int) int64 { return int64(i % 2) }), 0},
		{"alternatingPairs", fill(func(i int) int64 { return int64(i / 2 % 2) }), 0},
		{"oneAbove", fill(func(i int) int64 { return int64(i / (partBlock - 1)) }), 0},
		{"oneAtMost", fill(func(i int) int64 { return 1 - int64(i/(partBlock-1)) }), 0},
		{"uniform", fill(func(int) int64 { return rng.Int63n(1000) }), 500},
	}
	for _, b := range blocks {
		for _, side := range []struct {
			name       string
			vec, loops func([]int64, int64, *[partBlock]uint8) int
		}{
			{"left", misplacedLeft, misplacedLeftGo},
			{"right", misplacedRight, misplacedRightGo},
		} {
			var got, want [partBlock]uint8
			n, wn := side.vec(b.blk, b.pivot, &got), side.loops(b.blk, b.pivot, &want)
			if n != wn || !slices.Equal(got[:n], want[:wn]) {
				t.Errorf("%s/%s: %d offsets %v, the Go loop %d %v", b.name, side.name, n, got[:n], wn, want[:wn])
			}
		}
	}
}
