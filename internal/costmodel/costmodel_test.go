package costmodel

import (
	"math"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default params invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []Params{
		{},
		{OmegaReadPage: 1e-7, KappaWritePage: 1e-7, PhiRandomPage: 1e-7, Gamma: 0, SigmaSwap: 1e-9, TauAlloc: 1e-7},
		{OmegaReadPage: -1, KappaWritePage: 1e-7, PhiRandomPage: 1e-7, Gamma: 512, SigmaSwap: 1e-9, TauAlloc: 1e-7},
		{OmegaReadPage: 1e-7, KappaWritePage: 1e-7, PhiRandomPage: 1e-7, Gamma: 512, SigmaSwap: 0, TauAlloc: 1e-7},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestNewFallsBackToDefault(t *testing.T) {
	m := New(Params{})
	if m.P != Default() {
		t.Fatal("New with invalid params did not fall back to Default")
	}
}

func TestScanTimeLinear(t *testing.T) {
	m := New(Default())
	t1 := m.ScanTime(1 << 20)
	t2 := m.ScanTime(1 << 21)
	if math.Abs(t2/t1-2) > 1e-9 {
		t.Fatalf("ScanTime not linear: %g vs %g", t1, t2)
	}
	if t1 <= 0 {
		t.Fatal("ScanTime must be positive")
	}
}

func TestPivotCostsMoreThanScan(t *testing.T) {
	m := New(Default())
	n := 1 << 20
	if m.PivotTime(n) <= m.ScanTime(n) {
		t.Fatal("pivoting (read+write) must cost more than scanning (read)")
	}
}

func TestBucketScanCostsMoreThanScan(t *testing.T) {
	m := New(Default())
	n := 1 << 20
	if m.BucketScanTime(n, 1024) <= m.ScanTime(n) {
		t.Fatal("bucket scan must pay extra random accesses")
	}
	// Larger blocks amortize the random accesses better.
	if m.BucketScanTime(n, 4096) >= m.BucketScanTime(n, 64) {
		t.Fatal("bigger blocks should make bucket scans cheaper")
	}
}

func TestEquiHeightMultiplier(t *testing.T) {
	m := New(Default())
	n := 1 << 20
	bt := m.BucketTime(n, 1024)
	eh := m.EquiHeightBucketTime(n, 1024, 64)
	if math.Abs(eh/bt-6) > 1e-9 { // log2(64) = 6
		t.Fatalf("equi-height multiplier = %g, want 6", eh/bt)
	}
}

func TestPackTime(t *testing.T) {
	m := New(Default())
	if got, want := m.PackTime(1<<20, 1), DefaultPackRow*(1<<20); got != want {
		t.Fatalf("PackTime(1M, 1) = %g, want %g (zero PackRow means the default)", got, want)
	}
	if par := m.PackTime(1<<20, 4); par >= m.PackTime(1<<20, 1) || par <= m.PackTime(1<<20, 1)/4 {
		t.Fatalf("PackTime over 4 workers = %g: want a sublinear speedup", par)
	}
	p := Default()
	p.PackRow = 2.5e-9
	if got, want := New(p).PackTime(4096, 1), 2.5e-9*4096; got != want {
		t.Fatalf("PackTime with a calibrated constant = %g, want %g", got, want)
	}
	p.PackRow = -1
	if p.Validate() == nil {
		t.Fatal("Validate accepted a negative pack cost")
	}
}

func TestLookupTimes(t *testing.T) {
	m := New(Default())
	if m.TreeLookupTime(10) != 10*m.P.PhiRandomPage {
		t.Fatal("TreeLookupTime wrong")
	}
	if m.BinarySearchTime(1) != m.P.PhiRandomPage {
		t.Fatal("BinarySearchTime(1) should be one access")
	}
	if m.BinarySearchTime(1<<20) <= m.BinarySearchTime(1<<10) {
		t.Fatal("BinarySearchTime must grow with n")
	}
}

// TestHeatShares pins the heat-weighted budget split: factors average
// exactly 1 (the total budget across survivors is conserved), scale
// linearly with heat, degrade to uniform on zero heat, and reuse the
// caller's scratch slice.
func TestHeatShares(t *testing.T) {
	shares := HeatShares(nil, []uint64{3, 1})
	if len(shares) != 2 || shares[0] != 1.5 || shares[1] != 0.5 {
		t.Fatalf("HeatShares(3,1) = %v, want [1.5 0.5]", shares)
	}
	uniform := HeatShares(nil, []uint64{7, 7, 7})
	for i, f := range uniform {
		if f != 1 {
			t.Fatalf("uniform share %d = %v, want 1", i, f)
		}
	}
	zero := HeatShares(nil, []uint64{0, 0})
	if zero[0] != 1 || zero[1] != 1 {
		t.Fatalf("zero-heat shares = %v, want uniform 1", zero)
	}
	if got := HeatShares(nil, nil); len(got) != 0 {
		t.Fatalf("empty heats returned %v", got)
	}
	// Conservation: the factors sum to the survivor count for any mix.
	heats := []uint64{5, 0, 2, 9, 1}
	shares = HeatShares(make([]float64, 0, 8), heats)
	sum := 0.0
	for _, f := range shares {
		sum += f
	}
	if sum < 4.999999 || sum > 5.000001 {
		t.Fatalf("shares %v sum to %v, want 5", shares, sum)
	}
	// Scratch reuse: capacity is adopted, no fresh allocation needed.
	scratch := make([]float64, 8)
	out := HeatShares(scratch, heats)
	if &out[0] != &scratch[0] {
		t.Fatal("scratch slice not reused")
	}
}
