package core

import (
	"repro/internal/blocks"
	"repro/internal/column"
	"repro/internal/parallel"
)

// This file implements the parallel creation-phase kernels (DESIGN.md
// section 6). The creation phase of every bucketing algorithm (PMSD,
// PB, PLSD pass 0) moves a segment of δ·N base-column elements into
// per-bucket block lists while computing the in-flight query's
// predicated aggregate over the segment. The serial kernel does both
// in one fused loop; the parallel kernel splits the work into
//
//	pass 1 (parallel over segment chunks): per-chunk bucket histogram
//	        + chunk-local counting-sort into a grouped scratch buffer
//	        + per-chunk predicated aggregate;
//	pass 2 (parallel over buckets): per bucket, bulk-append the
//	        chunks' groups in chunk order.
//
// Chunk-major append order preserves the segment's column order inside
// every bucket, so the final bucket contents — and therefore every
// answer, including PLSD's FIFO-stability-dependent ones — are
// byte-identical to the serial kernel's for any worker count.

// minChunkCreate is the minimum segment elements per creation chunk.
// Creation does more work per element than a scan (digit computation,
// scatter into scratch), so it pays off earlier than MinChunkScan.
const minChunkCreate = 1 << 13

// segChunk is one chunk's pass-1 output.
type segChunk struct {
	counts []int // per-bucket element counts (the chunk histogram)
	ends   []int // per-bucket write positions in the chunk's region of grouped; the groups' ends once scattered
	sum    int64 // predicated query aggregate over the chunk
	count  int64
}

// digiter is a bucketing algorithm's creation digit function, a block
// at a time: out[i] is the bucket of vals[i]. An interface on the index
// itself so that neither a call per element nor a closure per step
// stands between the kernel and the digit loop.
type digiter interface {
	digits(vals []int64, out []uint32)
}

// bucketizer is a bucketing index's creation state: its creation
// buckets, set with the index, and parBucketize's buffers, made by the
// first parallel creation step and reused by every later one (segments
// are bounded by δ·N, so creation allocates nothing per query but bucket
// blocks). startRefinement drops it.
type bucketizer struct {
	lists   []*blocks.List
	grouped []int64  // each chunk's elements, grouped by bucket
	digit   []uint32 // each element's bucket
	parts   []segChunk
}

// parBucketize distributes seg into bz.lists[digit(v)] in parallel and
// returns the segment's predicated SUM/COUNT for [lo, hi]. The caller
// guarantees a digit in [0, len(bz.lists)) for every v in seg, and that
// the pool produces at least two chunks.
func parBucketize(p *parallel.Pool, seg []int64, bz *bucketizer, d digiter, lo, hi int64) (sum, count int64) {
	nb := len(bz.lists)
	chunks := p.Chunks(len(seg), minChunkCreate)
	if cap(bz.grouped) < len(seg) {
		bz.grouped = make([]int64, len(seg))
		bz.digit = make([]uint32, len(seg))
	}
	for len(bz.parts) < chunks {
		bz.parts = append(bz.parts, segChunk{counts: make([]int, nb), ends: make([]int, nb)})
	}
	grouped, digit, parts := bz.grouped[:len(seg)], bz.digit[:len(seg)], bz.parts[:chunks]
	size := (len(seg) + chunks - 1) / chunks

	// Pass 1: digits once, histogram, chunk-local group-by-bucket, query
	// aggregate.
	p.Run(len(seg), minChunkCreate, func(c, a, b int) {
		pc := &parts[c]
		dig := digit[a:b]
		d.digits(seg[a:b], dig)
		clear(pc.counts)
		counts := pc.counts
		var s, cnt int64
		for i, v := range seg[a:b] {
			counts[dig[i]]++
			ge := ^((v - lo) >> 63) & 1
			le := ^((hi - v) >> 63) & 1
			m := ge & le
			s += v & -m
			cnt += m
		}
		run := 0
		for k, n := range counts {
			pc.ends[k] = run
			run += n
		}
		out, ends := grouped[a:b], pc.ends
		for i, v := range seg[a:b] {
			k := dig[i]
			out[ends[k]] = v
			ends[k]++
		}
		pc.sum, pc.count = s, cnt
	})

	// Pass 2: per bucket, append every chunk's group in chunk order.
	// Buckets are disjoint, so splitting the bucket index range across
	// workers shares nothing; static splitting tolerates skew poorly
	// but keeps the chunking deterministic.
	p.Run(nb, 1, func(_, dLo, dHi int) {
		for d := dLo; d < dHi; d++ {
			for c := range parts {
				pc := &parts[c]
				if pc.counts[d] == 0 {
					continue
				}
				g := c*size + pc.ends[d]
				bz.lists[d].AppendSlice(grouped[g-pc.counts[d] : g])
			}
		}
	})

	for i := range parts {
		sum += parts[i].sum
		count += parts[i].count
	}
	return sum, count
}

// bucketStep is the creation step of the three bucketing algorithms:
// it moves up to units elements of the base column into bz.lists, each
// into the bucket dg's digits name, accumulating the predicated
// aggregates of the segment for the in-flight query, and returns them
// with how many elements it moved. A segment the pool would not split
// stays on this goroutine, a tile of digits at a time.
func (d *progressive) bucketStep(units int, lo, hi int64, aggs column.Aggregates, bz *bucketizer, dg digiter) (column.Agg, int) {
	start := d.copied
	end := min(start+units, d.n)
	seg := d.col.Values()[start:end]
	var sum, count int64
	if d.pool.Chunks(len(seg), minChunkCreate) > 1 {
		sum, count = parBucketize(d.pool, seg, bz, dg, lo, hi)
	} else {
		var tile [256]uint32
		for rest := seg; len(rest) > 0; {
			vals := rest[:min(len(rest), len(tile))]
			rest = rest[len(vals):]
			dg.digits(vals, tile[:len(vals)])
			for i, v := range vals {
				bz.lists[tile[i]].Append(v)
				ge := ^((v - lo) >> 63) & 1
				le := ^((hi - v) >> 63) & 1
				m := ge & le
				sum += v & -m
				count += m
			}
		}
	}
	d.copied = end
	return segmentExtrema(d.pool, seg, lo, hi, aggs, sum, count), end - start
}
