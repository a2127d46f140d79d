package column

// sumRangeAVX2 is SumRange's match, sum and count over vs, whose length
// is a multiple of 8, four rows to a compare: sum is the wrapping sum
// of the rows with uint64(v-lo) <= span, miss the number of the others.
//
//go:noescape
func sumRangeAVX2(vs []int64, lo int64, span uint64) (sum, miss int64)
