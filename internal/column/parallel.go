package column

import "repro/internal/parallel"

// MinChunkScan is the minimum elements per parallel chunk for the scan
// kernels. Inputs below two chunks stay serial (DESIGN.md section 6):
// a chunk of 64K int64s (512 KiB) takes long enough to scan that the
// fork/join overhead is noise.
const MinChunkScan = 1 << 16

// ParAggRange is AggRange split across the pool's workers, merging the
// per-chunk accumulators in chunk order. SUM wraps commutatively and
// COUNT/MIN/MAX are order-free, so the answer is bit-for-bit identical
// to serial AggRange for every worker count.
func ParAggRange(p *parallel.Pool, values []int64, lo, hi int64, aggs Aggregates) Agg {
	chunks := p.Chunks(len(values), MinChunkScan)
	if chunks == 1 {
		return AggRange(values, lo, hi, aggs)
	}
	parts := make([]Agg, chunks)
	p.Run(len(values), MinChunkScan, func(c, a, b int) {
		parts[c] = AggRange(values[a:b], lo, hi, aggs)
	})
	res := parts[0]
	for _, a := range parts[1:] {
		res.Merge(a)
	}
	return res
}

// AggFull aggregates every element of values — the kernel for regions
// known to match entirely (cracked interiors, merged runs), where the
// predicated match arithmetic would be pure overhead.
func AggFull(values []int64, aggs Aggregates) Agg {
	a := NewAgg()
	a.Count = int64(len(values))
	if len(values) == 0 {
		return a
	}
	if aggs.NeedsMinMax() {
		mn, mx := values[0], values[0]
		var sum int64
		for _, v := range values {
			sum += v
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		a.Sum, a.Min, a.Max = sum, mn, mx
		return a
	}
	if aggs.NeedsSum() {
		var sum int64
		for _, v := range values {
			sum += v
		}
		a.Sum = sum
	}
	return a
}

// ParAggFull is AggFull split across the pool's workers.
func ParAggFull(p *parallel.Pool, values []int64, aggs Aggregates) Agg {
	chunks := p.Chunks(len(values), MinChunkScan)
	if chunks == 1 {
		return AggFull(values, aggs)
	}
	parts := make([]Agg, chunks)
	p.Run(len(values), MinChunkScan, func(c, a, b int) {
		parts[c] = AggFull(values[a:b], aggs)
	})
	res := parts[0]
	for _, a := range parts[1:] {
		res.Merge(a)
	}
	return res
}
