//go:build !amd64

package column

// sumRangeAVX2 is never called here: vector is false off amd64.
func sumRangeAVX2(vs []int64, lo int64, span uint64) (sum, miss int64) {
	panic("column: no vector kernel on this architecture")
}
