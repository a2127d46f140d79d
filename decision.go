package progidx

// WorkloadHints describes what is known about the expected workload and
// data, feeding the decision tree of Figure 11 (Section 5).
type WorkloadHints struct {
	// PointQueriesOnly: the workload consists (almost) exclusively of
	// point lookups, no wide ranges.
	PointQueriesOnly bool
	// SkewedData: the value distribution is heavily non-uniform.
	SkewedData bool
	// MemoryConstrained: at most one extra copy of the column can be
	// afforded; the bucket-based algorithms transiently need base
	// column + buckets + final array.
	MemoryConstrained bool
}

// Recommend returns the progressive strategy the paper's decision tree
// (Figure 11) selects for the described scenario, following the
// experimental findings of Section 4.4:
//
//   - memory-constrained: Progressive Quicksort — creation allocates a
//     single array and refinement is fully in place. This branch takes
//     precedence over every workload-shape hint: the other three
//     algorithms transiently hold base column + buckets + final array,
//     which is exactly what MemoryConstrained says cannot be afforded,
//     so recommending Radix LSD for a memory-constrained point
//     workload would violate the hint's contract outright;
//   - point-query workloads: Progressive Radixsort (LSD) — its
//     intermediate buckets accelerate point lookups from the first
//     queries on (Table 4, point-query block);
//   - skewed data: Progressive Bucketsort — equi-height bounds keep
//     partitions balanced where radix clustering degenerates (Table 4,
//     skewed block);
//   - otherwise: Progressive Radixsort (MSD) — fastest convergence and
//     best cumulative time on uniform data (Table 2, Figure 7c).
func Recommend(h WorkloadHints) Strategy {
	switch {
	case h.MemoryConstrained:
		return StrategyQuicksort
	case h.PointQueriesOnly:
		return StrategyRadixLSD
	case h.SkewedData:
		return StrategyBucketsort
	default:
		return StrategyRadixMSD
	}
}
