package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := (*Pool)(nil).Workers(); got != 1 {
		t.Fatalf("nil pool workers = %d, want 1", got)
	}
	if got := New(-3).Workers(); got != 1 {
		t.Fatalf("negative workers = %d, want 1", got)
	}
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(7).Workers(); got != 7 {
		t.Fatalf("workers = %d, want 7", got)
	}
}

func TestChunksCutoff(t *testing.T) {
	p := New(4)
	if got := p.Chunks(2*DefaultMinChunk-1, 0); got != 1 {
		t.Fatalf("below cutoff: chunks = %d, want 1", got)
	}
	if got := p.Chunks(2*DefaultMinChunk, 0); got != 2 {
		t.Fatalf("at cutoff: chunks = %d, want 2", got)
	}
	if got := p.Chunks(100*DefaultMinChunk, 0); got != 4 {
		t.Fatalf("large input: chunks = %d, want 4 (worker cap)", got)
	}
	if got := New(1).Chunks(1<<20, 0); got != 1 {
		t.Fatalf("serial pool: chunks = %d, want 1", got)
	}
	// Chunk count must not depend on GOMAXPROCS, only on the pool size.
	if got := New(8).Chunks(1<<20, 0); got != 8 {
		t.Fatalf("8-worker pool on %d-core host: chunks = %d, want 8",
			runtime.GOMAXPROCS(0), got)
	}
}

// TestRunCoversRange checks every element of [0, n) is visited exactly
// once, for worker counts above and below the machine's core count, and
// that no chunk's range is inverted — a task a unit (minChunk 1) over
// more workers than divide n leaves the last chunks nothing.
func TestRunCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		for _, c := range []struct{ n, minChunk int }{{0, 0}, {1, 0}, {100, 0}, {2 * DefaultMinChunk, 0}, {10*DefaultMinChunk + 13, 0}, {5, 1}, {9, 1}, {17, 1}} {
			n := c.n
			seen := make([]int32, n)
			var calls, inverted int32
			p := New(workers)
			p.Run(n, c.minChunk, func(chunk, lo, hi int) {
				atomic.AddInt32(&calls, 1)
				if lo > hi {
					atomic.AddInt32(&inverted, 1)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: element %d visited %d times", workers, n, i, c)
				}
			}
			if want := int32(p.Chunks(n, c.minChunk)); n > 0 && calls != want || inverted != 0 {
				t.Fatalf("workers=%d n=%d: %d calls, want %d; %d inverted ranges", workers, n, calls, want, inverted)
			}
		}
	}
}

// TestRunSerialInline checks the serial path runs on the calling
// goroutine with chunk index 0 and the full range.
func TestRunSerialInline(t *testing.T) {
	var chunk, lo, hi int = -1, -1, -1
	New(1).Run(1<<20, 0, func(c, l, h int) { chunk, lo, hi = c, l, h })
	if chunk != 0 || lo != 0 || hi != 1<<20 {
		t.Fatalf("serial run got (chunk=%d, lo=%d, hi=%d), want (0, 0, %d)", chunk, lo, hi, 1<<20)
	}
}

// TestRunConcurrentPools exercises many pools dispatching at once; the
// help-first wait must keep every Run making progress.
func TestRunConcurrentPools(t *testing.T) {
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var total int64
			p := New(4)
			for iter := 0; iter < 50; iter++ {
				var sum int64
				p.Run(4*DefaultMinChunk, 0, func(chunk, lo, hi int) {
					var s int64
					for i := lo; i < hi; i++ {
						s += int64(i)
					}
					atomic.AddInt64(&sum, s)
				})
				total += sum
			}
			n := int64(4 * DefaultMinChunk)
			want := 50 * (n * (n - 1) / 2)
			if total != want {
				t.Errorf("concurrent sum = %d, want %d", total, want)
			}
		}()
	}
	wg.Wait()
}

// TestRunNested makes sure a callback that itself calls Run cannot
// deadlock the shared worker set.
func TestRunNested(t *testing.T) {
	outer := New(4)
	inner := New(4)
	var count int64
	outer.Run(8*DefaultMinChunk, 0, func(chunk, lo, hi int) {
		inner.Run(hi-lo, DefaultMinChunk/2, func(c, l, h int) {
			atomic.AddInt64(&count, int64(h-l))
		})
	})
	if count != 8*DefaultMinChunk {
		t.Fatalf("nested run covered %d elements, want %d", count, 8*DefaultMinChunk)
	}
}
