// Command calibrate measures the Table 1 cost-model constants on the
// current machine and prints them together with derived pass costs for
// a few column sizes. Useful for sanity-checking budgets before running
// cmd/experiments with -calibrate.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
)

func main() {
	p := core.CalibrateParams()
	fmt.Printf("ω (seq page read)   = %.3e s\n", p.OmegaReadPage)
	fmt.Printf("κ (seq page write)  = %.3e s\n", p.KappaWritePage)
	fmt.Printf("φ (random access)   = %.3e s\n", p.PhiRandomPage)
	fmt.Printf("γ (elems per page)  = %d\n", p.Gamma)
	fmt.Printf("σ (swap per elem)   = %.3e s\n", p.SigmaSwap)
	fmt.Printf("τ (block alloc)     = %.3e s\n", p.TauAlloc)
	fmt.Printf("pack (per row)      = %.3e s\n", p.PackRow)
	m := costmodel.New(p)
	fmt.Println()
	fmt.Println("n          t_scan      t_pivot     t_swap      t_bucket    t_pack")
	for _, n := range []int{1 << 20, 1 << 24, 1 << 27} {
		fmt.Printf("%-10d %.3e  %.3e  %.3e  %.3e  %.3e\n",
			n, m.ScanTime(n), m.PivotTime(n), m.SwapTime(n), m.BucketTime(n, 1024), m.PackTime(n, 1))
	}
}
