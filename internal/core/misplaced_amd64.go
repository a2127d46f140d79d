package core

// misplacedLeftAVX2 and misplacedRightAVX2 are misplacedLeftGo and
// misplacedRightGo four rows to a compare (misplaced_amd64.s): the same
// count and the same first n offsets; the bytes of off past n differ.
//
//go:noescape
func misplacedLeftAVX2(blk *[partBlock]int64, pivot int64, off *[partBlock]uint8) (n int)

//go:noescape
func misplacedRightAVX2(blk *[partBlock]int64, pivot int64, off *[partBlock]uint8) (n int)
