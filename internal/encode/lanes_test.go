package encode

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/column"
)

// TestLaneKernelsMatchDecodedRows holds sorted blocks — their frames, the
// decode, RankBelow, At, SumRows and the two mask kernels — to their rows
// over every group width the first-row frame can produce: 0, and 63 with
// both ends of the domain in one group; blocks of one group and of many,
// a partial last group, ranges that start and end anywhere in a group,
// and bounds at, one off and far outside the frames' ends. Then over the
// shapes a line frames: a dense run over several blocks, progressions of
// step 3 and of steps that cross the whole legal domain in a block, one
// with an outlier, two dense runs meeting inside a block, and partial last
// groups of one and two rows.
func TestLaneKernelsMatchDecodedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const edge = column.MaxMagnitude - 1
	for _, w := range []int{0, 1, 7, 13, 32, 62, 63} {
		for _, n := range []int{1, 63, 64, 65, 200, BlockRows} {
			ref := -edge
			span := min(uint64(1)<<uint(w)-1, uint64(2*edge))
			if w < 62 {
				ref = rng.Int63n(1<<40) - 1<<39
			}
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = ref + int64(rng.Uint64()%(span+1))
			}
			vals[0], vals[n-1] = ref, ref+int64(span)
			slices.Sort(vals)
			checkPackSorted(t, fmt.Sprintf("w=%d n=%d", w, n), vals, rng, 200)
		}
	}
	line := func(n int, first, step int64) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = first + int64(i)*step
		}
		return vals
	}
	wide := (edge - 1) / (BlockRows - 1) // (2^62 − 2)/4095: a block crosses half the domain
	outlier := line(BlockRows+300, -5000, 3)
	outlier[1700] += 2 // still sorted, off the line by two
	outlier[len(outlier)-1] = 1 << 45
	for _, c := range []struct {
		name string
		vals []int64
	}{
		{"dense over several blocks", line(3*BlockRows+100, 0, 1)},
		{"step 3", line(2*BlockRows+5, -12345, 3)},
		{"step crossing half the domain from its bottom", line(BlockRows, -edge, wide)},
		{"step crossing half the domain to its top", line(BlockRows, edge-(BlockRows-1)*wide, wide)},
		{"step crossing the whole domain", line(BlockRows, -edge, 2*wide)},
		{"step crossing the whole domain, one short", line(BlockRows-1, -edge, 2*wide)},
		{"progression with an outlier", outlier},
		{"two dense runs meeting inside a block", append(line(1500, 0, 1), line(BlockRows, 1<<30, 1)...)},
		{"partial last group of one row", line(BlockRows+GroupRows+1, 7, 5)},
		{"partial last group of two rows", line(2*GroupRows+2, 7, 5)},
		{"two rows", line(2, -edge, 2*edge)},
	} {
		checkPackSorted(t, c.name, c.vals, rng, 100)
	}
}

// checkPackSorted packs sorted rows and holds every block to its part of
// them with checkSortedBlock.
func checkPackSorted(t *testing.T, name string, vals []int64, rng *rand.Rand, trials int) {
	t.Helper()
	refs := make([]int64, (len(vals)+GroupRows-1)/GroupRows)
	for i, blk := range PackSorted(nil, vals, refs) {
		checkSortedBlock(t, fmt.Sprintf("%s, block %d", name, i), blk, vals[i*BlockRows:min((i+1)*BlockRows, len(vals))], rng, trials)
	}
}

// frameWidths recomputes the packer's rule for one block's sorted rows:
// the width of groups framed on their first rows, and that of the line of
// the block's fitted step, (last − first)/(n − 1) — the same, for a step
// of 0.
func frameWidths(vals []int64) (constant, fitted int) {
	n := len(vals)
	step := int64(0)
	if n > 1 {
		step = (vals[n-1] - vals[0]) / int64(n-1)
	}
	var lo, hi int64
	for g := 0; g*GroupRows < n; g++ {
		group := vals[g*GroupRows : min((g+1)*GroupRows, n)]
		constant = max(constant, bits.Len64(uint64(group[len(group)-1]-group[0])))
		for i, v := range group {
			r := v - group[0] - int64(i)*step
			lo, hi = min(lo, r), max(hi, r)
		}
	}
	return constant, bits.Len64(uint64(hi - lo))
}

// checkSortedBlock holds one packed block to its rows: its frames and
// its width — the narrower of the two frames, never wider than the
// first-row one — the decode, At, and trials random ranges of SumRows,
// RankBelow and the mask kernels.
func checkSortedBlock(t *testing.T, name string, blk *SortedBlock, vals []int64, rng *rand.Rand, trials int) {
	t.Helper()
	n := len(vals)
	for g := range blk.refs {
		if first := vals[g*GroupRows]; blk.refs[g] != first {
			t.Fatalf("%s: group %d framed on %d, want its first row %d", name, g, blk.refs[g], first)
		}
	}
	constant, fitted := frameWidths(vals)
	if w := int(blk.width); w != min(constant, fitted) || w > constant || blk.Min() != vals[0] || blk.Max() != vals[n-1] {
		t.Fatalf("%s: %d bits wide over [%d, %d], want the narrower of the first-row frame's %d and the line's %d over [%d, %d]",
			name, blk.width, blk.Min(), blk.Max(), constant, fitted, vals[0], vals[n-1])
	}
	if !slices.Equal(blk.AppendTo(nil), vals) {
		t.Fatalf("%s: the block does not decode to its rows", name)
	}
	for i, v := range vals {
		if got := blk.At(i); got != v {
			t.Fatalf("%s: At(%d) = %d, want %d", name, i, got, v)
		}
	}
	for trial := 0; trial < trials; trial++ {
		from := rng.Intn(n + 1)
		to := from + rng.Intn(n+1-from)
		var sum int64
		for _, v := range vals[from:to] {
			sum += v
		}
		if got := blk.SumRows(from, to); got != sum {
			t.Fatalf("%s: SumRows(%d, %d) = %d, want %d", name, from, to, got, sum)
		}
		probe := vals[rng.Intn(n)]
		for _, v := range []int64{probe - 1, probe, probe + 1, vals[0], vals[n-1], vals[n-1] + 1, -column.MaxMagnitude, column.MaxMagnitude} {
			want := 0
			for _, x := range vals[from:to] {
				if x < v {
					want++
				}
			}
			if got := blk.RankBelow(from, to, v); got != want {
				t.Fatalf("%s: RankBelow(%d, %d, %d) = %d, want %d", name, from, to, v, got, want)
			}
		}
		checkSortedMask(t, blk, vals, rng)
	}
}

// checkSortedMask runs Refine over a random bound pair and a random mask,
// then AggMasked over what is left, against a row-by-row loop.
func checkSortedMask(t *testing.T, blk *SortedBlock, vals []int64, rng *rand.Rand) {
	t.Helper()
	bounds := []int64{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))] + 1, vals[0] - 1, vals[len(vals)-1], -column.MaxMagnitude, column.MaxMagnitude}
	lo, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
	var mask, want [BlockRows / 64]uint64
	column.FillMask(want[:], len(vals))
	for i := range mask {
		mask[i] = want[i] & rng.Uint64()
	}
	a := column.NewAgg()
	for i, v := range vals {
		if mask[i/64]>>uint(i%64)&1 == 1 && lo <= v && v <= hi {
			a.Count++
			a.Sum += v
			a.Min, a.Max = min(a.Min, v), max(a.Max, v)
		}
	}
	if live := blk.Refine(lo, hi, mask[:]); int64(live) != a.Count {
		t.Fatalf("n=%d: Refine(%d, %d) keeps %d rows, want %d", len(vals), lo, hi, live, a.Count)
	}
	if got := blk.AggMasked(mask[:], column.AggAll); got != a {
		t.Fatalf("n=%d: AggMasked after Refine(%d, %d) = %+v, want %+v", len(vals), lo, hi, got, a)
	}
}

// FuzzPackSorted: any sorted rows, packed over one block or several,
// against the rows themselves — the frame rule, AppendTo, At, SumRows,
// RankBelow, and Refine then AggMasked. The generator leans toward what a
// line frames: rows start as the progression first + i·step, n of them,
// and every four bytes of noise move one row — or, with the shift byte's
// top bit set, every row from it on — by a signed byte shifted up to 62
// bits, which with enough noise is any sorted input at all; the rows are
// sorted after. The committed corpus holds a dense run, steps of 3 and
// across the whole domain, a progression with one outlier, two runs
// meeting in a block, partial last groups and a noise-only input.
func FuzzPackSorted(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(3*BlockRows), []byte{})
	f.Add(int64(-9), int64(3), uint16(BlockRows+65), []byte{0, 7, 40, 1})
	f.Add(int64(-column.MaxMagnitude+1), int64((column.MaxMagnitude-2)/(BlockRows-1)*2), uint16(BlockRows), []byte{})
	f.Fuzz(func(t *testing.T, first, step int64, n uint16, noise []byte) {
		const edge = column.MaxMagnitude - 1
		// moved returns v + d, saturated to the legal domain; v is inside
		// it and |d| at most 2·edge, so nothing wraps.
		moved := func(v, d int64) int64 {
			switch {
			case d > 0 && d > edge-v:
				return edge
			case d < 0 && d < -edge-v:
				return -edge
			}
			return v + d
		}
		rows := 1 + int(n)%(3*BlockRows)
		first = min(max(first, -edge), edge)
		step %= 2*edge/int64(rows) + 1
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = moved(first, int64(i)*step)
		}
		for ; len(noise) >= 4; noise = noise[4:] {
			i, d := (int(noise[0])<<8|int(noise[1]))%rows, int64(int8(noise[3]))<<((noise[2]&127)%63)
			for j := i; j == i || noise[2] >= 128 && j < rows; j++ {
				vals[j] = moved(vals[j], d)
			}
		}
		slices.Sort(vals)
		checkPackSorted(t, fmt.Sprintf("first=%d step=%d", first, step), vals, rand.New(rand.NewSource(first^step)), 20)
	})
}
