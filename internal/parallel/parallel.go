// Package parallel provides the reusable worker pool behind every
// multi-core kernel in this repository (DESIGN.md section 6). It is a
// deliberately small surface: a Pool sizes the parallelism, Run splits
// an index range into contiguous chunks and executes them concurrently
// on a process-wide set of persistent workers.
//
// Design constraints, in order of priority:
//
//  1. Determinism. Chunking depends only on (n, minChunk, workers) —
//     never on GOMAXPROCS, scheduling, or timing — so callers that
//     merge per-chunk results in chunk order produce bit-identical
//     output for every worker count, on every machine.
//  2. Serial fidelity. A Pool with one worker, a nil Pool, or an input
//     below the minimum-chunk cutoff runs the callback once, inline,
//     on the calling goroutine: exactly the pre-parallel code path,
//     with zero synchronization and zero allocation.
//  3. No goroutine leaks. Indexes are created in the thousands by
//     tests and benchmarks, so Pool is a value-like handle; the actual
//     workers are a single process-lifetime set shared by all pools
//     (like the runtime's own background workers), started when the
//     package initialises: they, and the threads the runtime starts to
//     run them, belong to no caller, and a caller's first Run does not
//     show them in the live heap it holds.
package parallel

import (
	"runtime"
	"sync/atomic"
)

// DefaultMinChunk is the minimum elements per chunk: inputs smaller
// than two chunks of this size stay serial, because below ~32 KiB of
// int64s the fork/join overhead exceeds the scan itself.
const DefaultMinChunk = 4096

// Pool sizes the parallelism for a family of kernel invocations. The
// zero value and nil are both valid and mean serial execution.
type Pool struct {
	workers int
}

// New returns a pool of the given size. workers == 0 resolves to
// runtime.GOMAXPROCS(0) at call time; workers < 0 is treated as 1.
func New(workers int) *Pool {
	if workers < 0 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers returns the resolved worker count (>= 1). A nil pool reports
// 1: the serial path.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	if p.workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.workers
}

// Chunks reports how many chunks Run will use for an input of n
// elements: at most Workers, never so many that a chunk falls below
// minChunk (<= 0 means DefaultMinChunk), and always at least 1.
func (p *Pool) Chunks(n, minChunk int) int {
	if minChunk <= 0 {
		minChunk = DefaultMinChunk
	}
	w := p.Workers()
	if w <= 1 || n < 2*minChunk {
		return 1
	}
	chunks := n / minChunk
	if chunks > w {
		chunks = w
	}
	return chunks
}

// Run partitions [0, n) into Chunks(n, minChunk) contiguous chunks and
// invokes fn(chunk, lo, hi) for each. Chunk 0 always runs on the
// calling goroutine; the rest are executed by the shared workers (or,
// under load, inline by the caller — progress never depends on worker
// availability). Run returns after every chunk has completed.
//
// The chunk index is the per-call scratch key: callers allocate
// Chunks() slots, write chunk c's partial result into slot c, and
// merge slots in index order for deterministic output.
func (p *Pool) Run(n, minChunk int, fn func(chunk, lo, hi int)) {
	chunks := p.Chunks(n, minChunk)
	if chunks == 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	size := (n + chunks - 1) / chunks
	pending := int32(chunks - 1)
	done := make(chan struct{})
	for c := 1; c < chunks; c++ {
		// Rounding size up can leave the last chunks past n (5 over 4
		// chunks of 2): they get an empty range, not an inverted one.
		lo, hi := min(c*size, n), min((c+1)*size, n)
		c := c
		submit(func() {
			fn(c, lo, hi)
			if atomic.AddInt32(&pending, -1) == 0 {
				close(done)
			}
		})
	}
	fn(0, 0, size)
	// Help-first wait: while our chunks are outstanding, execute
	// whatever is queued (ours or another pool's). A waiter that drains
	// the queue makes deadlock impossible even if every shared worker
	// is itself blocked inside a nested Run.
	for {
		select {
		case <-done:
			return
		case f := <-tasks:
			f()
		}
	}
}

// Process-wide persistent workers. Started once, at package
// initialisation, sized at GOMAXPROCS then, never stopped: they are
// parked on a channel receive when idle and cost nothing.
var tasks chan func()

func init() {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	tasks = make(chan func(), 4*w)
	for i := 0; i < w; i++ {
		go func() {
			for f := range tasks {
				f()
			}
		}()
	}
}

// submit hands a task to the shared workers, or runs it inline when
// the queue is full, so Run can never deadlock no matter how many
// pools dispatch concurrently.
func submit(f func()) {
	select {
	case tasks <- f:
	default:
		f()
	}
}
