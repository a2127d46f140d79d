// Package blocks implements the bucket layout of Section 3.2: a bucket
// is a linked list of fixed-size memory blocks holding up to sb
// elements each. "When a block is filled, another block is added to the
// list and elements will be written to that block."
//
// The layout matters for the cost model: scanning a bucket costs a
// sequential scan plus one random access per block (t_bscan), and
// appending pays one allocation (τ) per sb elements. List therefore
// reports how many blocks it allocated so the indexing code can account
// for τ, and Cursor supports resumable front-to-back consumption, which
// the radix refinement phases need to pause mid-bucket when the
// per-query budget runs out.
package blocks

import "repro/internal/column"

// DefaultBlockSize is sb, the maximum elements per bucket block. 1024
// int64s = 8 KiB, two pages: large enough to amortize the allocation,
// small enough that partially filled tail blocks waste little memory.
const DefaultBlockSize = 1024

// List is one bucket: a chain of blocks. The zero value is NOT usable;
// construct with NewList so the block size is always valid.
type List struct {
	blockSize int
	blocks    [][]int64
	count     int
	allocs    int
}

// NewList returns an empty bucket with the given block size.
func NewList(blockSize int) *List {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &List{blockSize: blockSize}
}

// BlockSize returns sb.
func (l *List) BlockSize() int { return l.blockSize }

// Count returns the number of elements in the bucket.
func (l *List) Count() int { return l.count }

// Allocations returns how many blocks have been allocated over the
// bucket's lifetime (cost-model bookkeeping for τ).
func (l *List) Allocations() int { return l.allocs }

// Append adds v to the bucket, allocating a new block if the last one
// is full. It returns true when an allocation happened.
func (l *List) Append(v int64) bool {
	allocated := false
	if n := len(l.blocks); n == 0 || len(l.blocks[n-1]) == l.blockSize {
		l.blocks = append(l.blocks, make([]int64, 0, l.blockSize))
		l.allocs++
		allocated = true
	}
	last := len(l.blocks) - 1
	l.blocks[last] = append(l.blocks[last], v)
	l.count++
	return allocated
}

// AppendSlice adds all of vs to the bucket in order, block by block.
// Equivalent to calling Append per element (same final layout, same
// allocation accounting) but amortizes the tail-block bookkeeping over
// whole copies; the parallel creation paths feed it pre-grouped runs.
func (l *List) AppendSlice(vs []int64) {
	for len(vs) > 0 {
		if n := len(l.blocks); n == 0 || len(l.blocks[n-1]) == l.blockSize {
			l.blocks = append(l.blocks, make([]int64, 0, l.blockSize))
			l.allocs++
		}
		last := len(l.blocks) - 1
		k := l.blockSize - len(l.blocks[last])
		if k > len(vs) {
			k = len(vs)
		}
		l.blocks[last] = append(l.blocks[last], vs[:k]...)
		l.count += k
		vs = vs[k:]
	}
}

// Blocks exposes the underlying blocks for read-only scans.
func (l *List) Blocks() [][]int64 { return l.blocks }

// AggRange computes the requested aggregates over the whole bucket with
// the predicated kernel, block by block.
func (l *List) AggRange(lo, hi int64, aggs column.Aggregates) column.Agg {
	r := column.NewAgg()
	for _, b := range l.blocks {
		r.Merge(column.AggRange(b, lo, hi, aggs))
	}
	return r
}

// AppendTo copies all elements into dst and returns the extended slice.
func (l *List) AppendTo(dst []int64) []int64 {
	for _, b := range l.blocks {
		dst = append(dst, b...)
	}
	return dst
}

// Reset drops all blocks, returning the bucket to empty without
// reusing memory (the radix LSD passes retire whole bucket sets at
// once; the garbage collector reclaims them).
func (l *List) Reset() {
	l.blocks = nil
	l.count = 0
}

// Cursor consumes a List front to back, resumably. The zero value
// positioned at the start of the list is ready to use.
type Cursor struct {
	block int
	off   int
}

// Remaining returns how many elements are left after the cursor.
func (c *Cursor) Remaining(l *List) int {
	done := 0
	for i := 0; i < c.block && i < len(l.blocks); i++ {
		done += len(l.blocks[i])
	}
	done += c.off
	return l.count - done
}

// NextRun returns the unread rest of the current block, at most max
// elements of it, and advances past them; nil when the bucket is
// exhausted. The run aliases the block and stays valid while the list
// does. The cursor never advances past a partially filled tail block:
// appends may still land there, and skipping it would lose them (and
// break FIFO order).
func (c *Cursor) NextRun(l *List, max int) []int64 {
	for c.block < len(l.blocks) && max > 0 {
		b := l.blocks[c.block]
		if c.off < len(b) {
			run := b[c.off:min(len(b), c.off+max)]
			c.off += len(run)
			return run
		}
		if len(b) < l.blockSize {
			return nil // tail block may still grow
		}
		c.block++
		c.off = 0
	}
	return nil
}

// AggRemaining computes the requested aggregates over the
// not-yet-consumed suffix of the bucket, which is what a query must scan
// while the bucket is being repartitioned.
func (c *Cursor) AggRemaining(l *List, lo, hi int64, aggs column.Aggregates) column.Agg {
	r := column.NewAgg()
	if c.block >= len(l.blocks) {
		return r
	}
	r.Merge(column.AggRange(l.blocks[c.block][c.off:], lo, hi, aggs))
	for i := c.block + 1; i < len(l.blocks); i++ {
		r.Merge(column.AggRange(l.blocks[i], lo, hi, aggs))
	}
	return r
}

// Set is a fixed-size family of buckets sharing one block size, the
// shape every bucketing algorithm in the paper uses (b = 64).
type Set struct {
	buckets []*List
}

// NewSet allocates n empty buckets.
func NewSet(n, blockSize int) *Set {
	s := &Set{buckets: make([]*List, n)}
	for i := range s.buckets {
		s.buckets[i] = NewList(blockSize)
	}
	return s
}

// Len returns the number of buckets.
func (s *Set) Len() int { return len(s.buckets) }

// Bucket returns bucket i.
func (s *Set) Bucket(i int) *List { return s.buckets[i] }

// Count returns the total element count across all buckets.
func (s *Set) Count() int {
	total := 0
	for _, b := range s.buckets {
		total += b.count
	}
	return total
}

// Allocations sums block allocations across buckets.
func (s *Set) Allocations() int {
	total := 0
	for _, b := range s.buckets {
		total += b.allocs
	}
	return total
}
