package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/query"
)

// checkPartitionSteps drives the blocked partition and the scalar
// reference over two copies of arr with the same budget sequence
// (cycled until the partition completes) and requires the same cursors,
// leftover budget and array contents after every call.
func checkPartitionSteps(t *testing.T, arr []int64, pivot int64, budgets []int) {
	t.Helper()
	got, want := slices.Clone(arr), slices.Clone(arr)
	gl, gr := 0, len(arr)-1
	wl, wr := gl, gr
	for step := 0; wl <= wr; step++ {
		b := budgets[step%len(budgets)]
		var gb, wb int
		gl, gr, gb = partition(got, pivot, gl, gr, b)
		wl, wr, wb = partitionScalar(want, pivot, wl, wr, b)
		if gl != wl || gr != wr || gb != wb {
			t.Fatalf("step %d (budget %d, n %d, pivot %d): (pl, pr, budget) = (%d, %d, %d), scalar (%d, %d, %d)",
				step, b, len(arr), pivot, gl, gr, gb, wl, wr, wb)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (budget %d, n %d, pivot %d): arrays differ", step, b, len(arr), pivot)
		}
	}
}

func TestPartitionStepsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	shapes := map[string]func(n int) []int64{
		"uniform": func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = rng.Int63n(1000)
			}
			return a
		},
		"fewDistinct": func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = 400 + 100*rng.Int63n(3)
			}
			return a
		},
		"sorted": func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = int64(i) * 1000 / int64(n)
			}
			return a
		},
		"reversed": func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = int64(n-1-i) * 1000 / int64(n)
			}
			return a
		},
		"allEqual": func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = 500
			}
			return a
		},
	}
	for name, gen := range shapes {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 2, 127, 128, 255, 256, 257, 383, 512, 1000, 2049, 6000} {
				arr := gen(n)
				for _, pivot := range []int64{-1, 499, 500, 2000} { // below min … above max
					checkPartitionSteps(t, arr, pivot, []int{2 * partBlock}) // pauses on block edges
					for rep := 0; rep < 3; rep++ {
						budgets := make([]int, 1+rng.Intn(8))
						for i := range budgets {
							budgets[i] = 1 + rng.Intn(2000)
						}
						checkPartitionSteps(t, arr, pivot, budgets)
					}
				}
			}
		})
	}
}

// partitionCase decodes fuzz bytes: a pivot byte, a count of budgets and
// the budgets (two bytes each, 1…2048), then one byte per element.
func partitionCase(data []byte) (arr []int64, pivot int64, budgets []int) {
	if len(data) < 2 {
		return nil, 0, nil
	}
	pivot = int64(data[0])
	nb := 1 + int(data[1])%8
	data = data[2:]
	for i := 0; i < nb && len(data) >= 2; i++ {
		budgets = append(budgets, 1+int(binary.LittleEndian.Uint16(data))%2048)
		data = data[2:]
	}
	for _, b := range data {
		arr = append(arr, int64(b))
	}
	return arr, pivot, budgets
}

// FuzzPartitionStep holds partition to the scalar loop on arbitrary
// arrays, pivots and budget sequences; the corpus under
// testdata/fuzz/FuzzPartitionStep (the shapes of the test above) runs on
// every plain `go test`.
func FuzzPartitionStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		arr, pivot, budgets := partitionCase(data)
		if len(budgets) == 0 {
			return
		}
		checkPartitionSteps(t, arr, pivot, budgets)
	})
}

func checkSortLeaf(t *testing.T, a []int64) {
	t.Helper()
	want := slices.Clone(a)
	slices.Sort(want)
	var scratch []int64
	sortLeaf(a, &scratch)
	if !slices.Equal(a, want) {
		t.Fatalf("sortLeaf differs from slices.Sort (n %d, min %d, max %d)", len(a), want[0], want[len(want)-1])
	}
}

func TestSortLeafMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const limit = 1<<62 - 1
	sizes := []int{2, sortLeafCut - 1, sortLeafCut, 2*sortLeafCut - 1, 2 * sortLeafCut, 8*sortLeafCut - 1, 8 * sortLeafCut, 4095, 4096, 4097}
	for _, n := range sizes {
		for _, spanBits := range []int{0, 1, 7, 8, 9, 12, 16, 17, 31, 40, 56, 57, 62} {
			for _, mn := range []int64{0, -5, -limit, limit - (1<<spanBits - 1), -(1 << (spanBits - min(spanBits, 1)))} {
				a := make([]int64, n)
				for i := range a {
					a[i] = mn + rng.Int63n(1<<spanBits)
				}
				a[rng.Intn(n)], a[rng.Intn(n)] = mn, mn+(1<<spanBits-1)
				checkSortLeaf(t, a)
			}
		}
		both := make([]int64, n) // the whole ±(2^62 - 1) domain: 63 bits of span
		for i := range both {
			both[i] = rng.Int63n(2*limit+1) - limit
		}
		both[0], both[n-1] = limit, -limit
		checkSortLeaf(t, both)
		ordered := make([]int64, n)
		for i := range ordered {
			ordered[i] = int64(i) - 50
		}
		checkSortLeaf(t, ordered)
		slices.Reverse(ordered)
		checkSortLeaf(t, ordered)
	}
}

// FuzzSortLeaf holds sortLeaf to slices.Sort on arrays of two-byte
// values stretched by a multiplier, which picks the span and the bytes
// that differ (it may wrap: the whole int64 domain is fair); corpus under
// testdata/fuzz/FuzzSortLeaf.
func FuzzSortLeaf(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, mult int64) {
		a := make([]int64, len(data)/2)
		if len(a) == 0 {
			return
		}
		for i := range a {
			a[i] = int64(int16(binary.LittleEndian.Uint16(data[2*i:]))) * mult
		}
		checkSortLeaf(t, a)
	})
}

func TestBucketIndexMatchesUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 2, 63, 64, 1023} {
		sep := make([]int64, n)
		for i := range sep {
			sep[i] = rng.Int63n(int64(n)/2+1)*10 - 100 // duplicates at every size
		}
		slices.Sort(sep)
		probes := []int64{-1 << 62, -101, 1 << 62}
		for _, s := range sep {
			probes = append(probes, s-1, s, s+1, s+5)
		}
		for _, v := range probes {
			if got, want := bucketIndex(sep, v), column.UpperBound(sep, v); got != want {
				t.Fatalf("%d separators, v = %d: bucketIndex %d, UpperBound %d", n, v, got, want)
			}
		}
	}
}

// makeThreads runs GOMAXPROCS goroutines at once, each spinning until
// all have started, so that the runtime has made a thread for every P
// before a test counts the process's mallocs.
func makeThreads() {
	n := int32(runtime.GOMAXPROCS(0))
	var started atomic.Int32
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for started.Add(1); started.Load() < n; {
			}
		}()
	}
	wg.Wait()
}

// fillSudogs parks the goroutine once in a select of 1024 channels. A
// parked select takes a sudog for each of its cases from its P's cache,
// which refills from a central one, and allocates them
// (runtime.acquireSudog) where both are empty; woken, it gives them back
// to its P's cache, which spills half of itself into the central one
// each time it is full. A collection empties the central cache, so after
// one the pool's help-first wait, a two-case select, allocates its two
// sudogs when it parks on a P whose own cache is empty: 116 or 117
// mallocs for 115 allowed, in a few runs of 30 under -race (a memory
// profile of the window names runtime.acquireSudog under
// parallel.(*Pool).Run). Filled again, the central cache hands them out.
func fillSudogs() {
	cases := make([]reflect.SelectCase, 1024)
	for i := range cases {
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(make(chan struct{}))}
	}
	go func() {
		time.Sleep(time.Millisecond) // let the select park first
		cases[0].Chan.Close()
	}()
	reflect.Select(cases)
}

// The hot paths allocate nothing of their own: a creation step past the
// first allocates its bucket blocks and the pool's fork/join, a point
// query's answer in mid-refinement nothing at all.
func TestHotPathAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const n, domain, step = 200_000, 1 << 20, 50_000
	col := column.MustNew(randomValues(rng, n, domain))

	pb := NewBucketsort(col, Config{Workers: 2})
	pb.initBuckets()
	pb.bucketStep(step, 0, domain, column.AggSum, &pb.bz, pb) // makes the bucketizer's buffers
	// A block append is the block and, when the list's block table is
	// full, the table's regrowth (a step here appends at most one block
	// to a list).
	var appended int
	tables := make([]int, len(pb.bks))
	// testing.AllocsPerRun counts the whole process's mallocs, and the
	// process's first collection starts the runtime's background mark
	// workers, 4 mallocs of the runtime's own. The step's block appends
	// can trigger that collection inside the window (about one run in
	// thirty at GOMAXPROCS 8, "gc 1 … 1 P" in GODEBUG=gctrace=1), so
	// collect first. The runtime also allocates the m of every thread it
	// makes, and the step's pool can wake one more P than has run so far
	// (116 mallocs for 115 allowed, once, at GOMAXPROCS 16), so every P
	// gets its thread before the window. And the collection empties the
	// runtime's central sudog cache, which fillSudogs fills again.
	makeThreads()
	runtime.GC()
	fillSudogs()
	allocs := testing.AllocsPerRun(1, func() {
		appended = 0
		for i, bk := range pb.bks {
			appended -= bk.list.Allocations()
			tables[i] = cap(bk.list.Blocks())
		}
		pb.bucketStep(step, 0, domain, column.AggSum, &pb.bz, pb)
		for i, bk := range pb.bks {
			appended += bk.list.Allocations()
			if cap(bk.list.Blocks()) != tables[i] {
				appended++
			}
		}
	})
	// Two Runs of two chunks: a done channel, the chunk closure and its
	// captured state each.
	const forkJoin = 8
	if int(allocs) > appended+forkJoin {
		t.Fatalf("second PB creation step: %v allocations for %d block appends", allocs, appended)
	}

	plsd := NewRadixLSD(col, Config{Mode: FixedDelta, Delta: 0.1, Workers: 1})
	for plsd.Phase() != PhaseRefinement || plsd.oldIdx == 0 {
		execRange(plsd, 0, domain)
	}
	if plsd.merging {
		t.Fatal("PLSD reached its merge before the probe: no distribute pass to probe in")
	}
	probe := query.Request{Pred: query.Point(col.Values()[0]), Aggs: column.AggSum | column.AggCount}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := plsd.ExecuteSlice(probe, 1, true); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("PLSD point query mid-refinement: %v allocations", allocs)
	}
}
