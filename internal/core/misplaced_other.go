//go:build !amd64

package core

// The vector kernels are never called here: vector is false off amd64.

func misplacedLeftAVX2(blk *[partBlock]int64, pivot int64, off *[partBlock]uint8) (n int) {
	panic("core: no vector kernel on this architecture")
}

func misplacedRightAVX2(blk *[partBlock]int64, pivot int64, off *[partBlock]uint8) (n int) {
	panic("core: no vector kernel on this architecture")
}
