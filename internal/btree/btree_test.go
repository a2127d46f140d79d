package btree

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/encode"
	"repro/internal/parallel"
)

func sortedRandom(rng *rand.Rand, n, domain int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(domain))
	}
	slices.Sort(vals)
	return vals
}

func TestBuildRejectsBadFanout(t *testing.T) {
	if _, err := NewBuilder([]int64{1, 2, 3}, 1); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	if _, err := NewBuilder([]int64{1, 2, 3}, 0); err == nil {
		t.Fatal("fanout 0 accepted")
	}
}

func TestBuildTinyArray(t *testing.T) {
	// Arrays smaller than one node need no upper levels at all.
	tr, err := Build([]int64{5, 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d, want 1", tr.Height())
	}
	if got := tr.LowerBound(6); got != 1 {
		t.Fatalf("LowerBound(6) = %d, want 1", got)
	}
	if got, read := tr.AggRange(5, 7, column.AggSum|column.AggCount); got.Sum != 12 || got.Count != 2 || read != 2 {
		t.Fatalf("AggRange = %+v, read %d", got, read)
	}
}

func TestLowerBoundMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, fanout := range []int{2, 4, 16, 64} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(3000)
			vals := sortedRandom(rng, n, 500)
			tr, err := Build(vals, fanout)
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 50; q++ {
				v := int64(rng.Intn(520)) - 10
				got := tr.LowerBound(v)
				want := column.LowerBound(vals, v)
				if got != want {
					t.Fatalf("fanout=%d n=%d LowerBound(%d) = %d, want %d", fanout, n, v, got, want)
				}
				gotU := tr.UpperBound(v)
				wantU := column.UpperBound(vals, v)
				if gotU != wantU {
					t.Fatalf("fanout=%d n=%d UpperBound(%d) = %d, want %d", fanout, n, v, gotU, wantU)
				}
			}
		}
	}
}

func TestSumRangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := sortedRandom(rng, 5000, 1000)
	tr, err := Build(vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 200; q++ {
		lo := int64(rng.Intn(1100)) - 50
		hi := lo + int64(rng.Intn(300))
		agg, _ := tr.AggRange(lo, hi, column.AggSum|column.AggCount)
		got := agg.Result()
		want := column.SumRange(vals, lo, hi)
		if got != want {
			t.Fatalf("AggRange(%d,%d) = %+v, want %+v", lo, hi, got, want)
		}
	}
}

// Property: for arbitrary sorted arrays and query values, the tree's
// lower bound equals the plain binary search.
func TestLowerBoundProperty(t *testing.T) {
	f := func(raw []int16, probe int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		slices.Sort(vals)
		tr, err := Build(vals, 4)
		if err != nil {
			return false
		}
		return tr.LowerBound(int64(probe)) == column.LowerBound(vals, int64(probe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// decoded returns the tree's leaf level, unpacked.
func decoded(tr *Tree) []int64 {
	var rows []int64
	for _, leaf := range tr.leaves {
		rows = leaf.AppendTo(rows)
	}
	return rows
}

func TestBuilderIncrementalMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Seven blocks and a partial eighth; β = 8 divides a block, 7 and 100
	// put node boundaries anywhere in one, and at 64 the first key level is
	// the leaves' group references.
	vals := sortedRandom(rng, 7*encode.BlockRows+1234, 100_000)
	for _, fanout := range []int{7, 8, 64, 100} {
		oneShot, err := Build(vals, fanout)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(vals)/fanout + 1; len(oneShot.cum) != want || cap(oneShot.cum) != want {
			t.Fatalf("cum has len %d cap %d, want exactly %d", len(oneShot.cum), cap(oneShot.cum), want)
		}
		for j, c := range oneShot.cum {
			if want := sumOf(vals[:j*fanout]); c != want {
				t.Fatalf("cum[%d] = %d, want %d", j, c, want)
			}
		}
		for k, stride := 0, fanout; k < len(oneShot.keys); k, stride = k+1, stride*fanout {
			if len(oneShot.keys[k]) != len(vals)/stride {
				t.Fatalf("fanout %d: level %d has %d keys, want %d", fanout, k+1, len(oneShot.keys[k]), len(vals)/stride)
			}
			for j, key := range oneShot.keys[k] {
				if key != vals[j*stride] {
					t.Fatalf("fanout %d: level %d key %d = %d, want leaf %d = %d", fanout, k+1, j, key, j*stride, vals[j*stride])
				}
			}
		}
		if !slices.Equal(decoded(oneShot), vals) {
			t.Fatalf("fanout %d: the packed leaves do not decode to the sorted array", fanout)
		}

		// Whatever the grain and the pool, the tree is the one-shot tree.
		for _, blocks := range []int{1, 2, 3, 5} {
			b, err := NewBuilder(vals, fanout)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for steps := 0; !b.Done(); steps++ {
				rows += b.Step(parallel.New(blocks), blocks)
				if steps > b.Blocks() {
					t.Fatal("builder did not terminate")
				}
			}
			if rows != len(vals) {
				t.Fatalf("%d blocks a step: packed %d rows, expected %d", blocks, rows, len(vals))
			}
			tr := b.Tree()
			if tr == nil {
				t.Fatal("Tree() nil after Done")
			}
			if !slices.EqualFunc(tr.keys, oneShot.keys, slices.Equal[[]int64]) {
				t.Fatalf("%d blocks a step: levels differ from the one-shot tree's", blocks)
			}
			if !slices.Equal(tr.cum, oneShot.cum) {
				t.Fatalf("%d blocks a step: prefix sums differ from the one-shot tree's", blocks)
			}
			if !slices.Equal(decoded(tr), vals) || tr.SizeBytes() != oneShot.SizeBytes() {
				t.Fatalf("%d blocks a step: leaves differ from the one-shot tree's", blocks)
			}
		}
	}
}

func TestBuilderStepBudgetRespected(t *testing.T) {
	vals := sortedRandom(rand.New(rand.NewSource(17)), 5*encode.BlockRows+100, 1000)
	b, err := NewBuilder(vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Blocks() != 6 {
		t.Fatalf("Blocks() = %d, want 6", b.Blocks())
	}
	for !b.Done() {
		if got := b.Step(nil, 2); got == 0 || got > 2*encode.BlockRows {
			t.Fatalf("Step(2 blocks) packed %d rows", got)
		}
	}
	if b.Step(nil, 2) != 0 {
		t.Fatal("Step after Done must do no work")
	}
	if b, _ := NewBuilder(vals, 4); b.Step(nil, 0) != 0 || len(b.leaves) != 0 {
		t.Fatal("Step of no blocks must do no work")
	}
}

func TestTreeNilBeforeDone(t *testing.T) {
	vals := sortedRandom(rand.New(rand.NewSource(19)), 4096, 1000)
	b, _ := NewBuilder(vals, 4)
	if b.Tree() != nil {
		t.Fatal("Tree() must be nil before the build completes")
	}
}

func TestDuplicateHeavyKeys(t *testing.T) {
	vals := make([]int64, 2048)
	for i := range vals {
		vals[i] = int64(i / 512) // long runs of equal keys
	}
	tr, err := Build(vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(-1); v <= 4; v++ {
		if got, want := tr.LowerBound(v), column.LowerBound(vals, v); got != want {
			t.Fatalf("LowerBound(%d) = %d, want %d", v, got, want)
		}
	}
	r, _ := tr.AggRange(1, 2, column.AggSum|column.AggCount)
	if r.Count != 1024 {
		t.Fatalf("AggRange(1,2).Count = %d, want 1024", r.Count)
	}
}

// sumOf is the wrapping sum of vals, the plain loop the prefix sums are
// held to.
func sumOf(vals []int64) int64 {
	var sum int64
	for _, v := range vals {
		sum += v
	}
	return sum
}

// checkAggRange holds AggRange with every aggregate to the branching
// oracle over the same (sorted) values, and the read count to its bound:
// nothing without a SUM, the run when it is shorter than a node, fewer
// than two nodes otherwise.
func checkAggRange(t *testing.T, tr *Tree, vals []int64, lo, hi int64) {
	t.Helper()
	want := column.AggRangeBranching(vals, lo, hi)
	got, read := tr.AggRange(lo, hi, column.AggAll)
	if got != want {
		t.Fatalf("fanout %d n %d: AggRange(%d, %d) = %+v, want %+v", tr.fanout, len(vals), lo, hi, got, want)
	}
	if limit := min(int(want.Count), 2*(tr.fanout-1)); read > limit {
		t.Fatalf("fanout %d n %d: AggRange(%d, %d) read %d leaves for %d matches", tr.fanout, len(vals), lo, hi, read, want.Count)
	}
	got, read = tr.AggRange(lo, hi, column.AggCount|column.AggMin|column.AggMax)
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max || read != 0 {
		t.Fatalf("fanout %d n %d: AggRange(%d, %d) without SUM = %+v reading %d, want %+v reading none", tr.fanout, len(vals), lo, hi, got, read, want)
	}
}

// TestAggRangeWrapsLikeTheScan: with values near ±2^61 the prefix sums
// overflow after a handful of nodes, and the difference of two wrapped
// sums must still be bit-identical to the scan's wrapped SUM.
func TestAggRangeWrapsLikeTheScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const big = int64(1) << 61
	for _, fanout := range []int{2, 8, 64} {
		vals := make([]int64, 5_000)
		for i := range vals {
			vals[i] = big + rng.Int63n(big-1) // in [2^61, 2^62)
			if i%3 == 0 {
				vals[i] = -vals[i]
			}
		}
		slices.Sort(vals)
		tr, err := Build(vals, fanout)
		if err != nil {
			t.Fatal(err)
		}
		if last := tr.cum[len(tr.cum)-1]; last == 0 || sumOf(vals[:len(vals)/fanout*fanout]) != last {
			t.Fatalf("fanout %d: last prefix sum %d does not match the wrapped scan", fanout, last)
		}
		checkAggRange(t, tr, vals, vals[0], vals[len(vals)-1])
		checkAggRange(t, tr, vals, -column.MaxMagnitude+1, column.MaxMagnitude-1)
		for q := 0; q < 300; q++ {
			a, b := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
			checkAggRange(t, tr, vals, min(a, b), max(a, b))
		}
	}
}

// TestPackedLeavesNeverOutweighTheArray: the widest frame a group can
// have holds both ends of the legal domain, 63 bits, which with the
// group's reference is the 8 bytes a row of the array the leaves replace;
// spread over a block, the groups' frames are narrower and the leaves
// weigh less — and answer like the array. At β = 64 the first key level
// is those references, counted once.
func TestPackedLeavesNeverOutweighTheArray(t *testing.T) {
	const edge = column.MaxMagnitude - 1
	rng := rand.New(rand.NewSource(31))
	vals := make([]int64, encode.BlockRows+700)
	for i := range vals {
		vals[i] = rng.Int63n(edge) - rng.Int63n(edge)
	}
	vals[0], vals[1] = -edge, edge
	slices.Sort(vals)
	tr, err := Build(vals, 64)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for _, leaf := range tr.leaves {
		leaves += leaf.SizeBytes()
	}
	if want := 8 * 64 * (len(vals) + 63) / 64; leaves > want || leaves >= 8*len(vals) {
		t.Fatalf("the leaves weigh %d bytes, want under 63 bits and a reference a group (%d)", leaves, want)
	}
	if got, want := tr.SizeBytes(), leaves+8*(len(vals)/64+1+len(vals)/64/64); got != want {
		t.Fatalf("SizeBytes() = %d, want the leaves, a prefix sum a node and the root's key (%d)", got, want)
	}
	checkAggRange(t, tr, vals, -edge, edge)
	for q := 0; q < 300; q++ {
		a, b := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
		checkAggRange(t, tr, vals, min(a, b), max(a, b))
	}
}

// TestLinearFramesShrinkTheLeaves: every 64-row group of a tree over
// 0..4M−1 at β = 64 lies on its block's line of step 1, so the leaves
// hold no planes and the tree weighs its references and prefix sums
// (0.125 B/row each, and a page), its upper keys (0.002) and its blocks'
// headers (88 B a block, 0.021) — at most 0.28 B/row, where groups framed
// on their first rows took 1.00. Over sorted skewed, SkyServer and 40-bit
// uniform rows, no leaf outweighs what those first-row frames would have
// taken.
func TestLinearFramesShrinkTheLeaves(t *testing.T) {
	const n = 4 << 20
	dense := make([]int64, n)
	for i := range dense {
		dense[i] = int64(i)
	}
	tr, err := Build(dense, 64)
	if err != nil {
		t.Fatal(err)
	}
	if perRow := float64(tr.SizeBytes()) / n; perRow > 0.28 {
		t.Fatalf("a tree over 0..4M−1 weighs %.4f B/row, want at most 0.28", perRow)
	}
	// A one-row block holds no planes: it weighs a reference and the header.
	header := encode.PackSorted(nil, []int64{0}, make([]int64, 1))[0].SizeBytes() - 8
	rng := rand.New(rand.NewSource(41))
	for _, c := range []struct {
		name string
		vals []int64
	}{
		{"skewed", data.Skewed(1<<20, 3)},
		{"SkyServer", data.SkyServer(1<<20, 4)},
		{"uniform over 2^40", sortedRandom(rng, 1<<20, 1<<40)},
	} {
		slices.Sort(c.vals)
		tr, err := Build(c.vals, 64)
		if err != nil {
			t.Fatal(err)
		}
		for b, leaf := range tr.leaves {
			rows := c.vals[b*encode.BlockRows : min((b+1)*encode.BlockRows, len(c.vals))]
			width := 0
			for g := 0; g < len(rows); g += encode.GroupRows {
				width = max(width, bits.Len64(uint64(rows[min(g+encode.GroupRows, len(rows))-1]-rows[g])))
			}
			groups := (len(rows) + encode.GroupRows - 1) / encode.GroupRows
			if firstRow := 8*groups*(width+1) + header; leaf.SizeBytes() > firstRow {
				t.Fatalf("%s: block %d weighs %d bytes, more than the %d of its groups framed on their first rows", c.name, b, leaf.SizeBytes(), firstRow)
			}
		}
	}
}

// FuzzTreeAggRange: any sorted input, any fan-out from 2 to 128, any
// bounds — inverted and out-of-domain ones included — against the
// branching oracle. The committed corpus holds the packed leaves' edges:
// a frame of no bits and one of 63 (a group spanning the whole domain
// beside narrow ones), a group of equal keys in a wider block, a partial
// last group framed on its one row, fan-outs of 4 and 100 whose nodes
// and groups do not align, a tree of one node, bounds on a block's
// reference and on its maximum, and rows a block frames on a line: steps
// of 1 across blocks, of 3, of 2^55 across the domain, a line with one
// row off it and two lines meeting inside a block.
func FuzzTreeAggRange(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0), int64(2), int64(7))
	f.Add([]byte{9, 9, 9, 9, 0, 0, 0, 0, 200, 100}, uint8(2), int64(9), int64(0))
	f.Add([]byte{}, uint8(126), int64(-1), int64(1))
	f.Fuzz(func(t *testing.T, raw []byte, fan uint8, lo, hi int64) {
		fanout := 2 + int(fan)%127
		// Three bytes a value, spread over the whole legal magnitude — both
		// ends of it in one block make a 63-bit frame — so that sums wrap;
		// the bounds may be anything an int64 holds.
		vals := make([]int64, 0, len(raw)/3)
		for ; len(raw) >= 3; raw = raw[3:] {
			v := int64(int8(raw[0]))<<55 | int64(raw[1])<<8 | int64(raw[2])
			vals = append(vals, max(v, -column.MaxMagnitude+1))
		}
		slices.Sort(vals)
		tr, err := Build(vals, fanout)
		if err != nil {
			t.Fatal(err)
		}
		checkAggRange(t, tr, vals, lo, hi)
		if len(vals) > 0 {
			// Bounds taken from the data hit runs the random ones miss.
			a := vals[int(uint64(lo)%uint64(len(vals)))]
			b := vals[int(uint64(hi)%uint64(len(vals)))]
			checkAggRange(t, tr, vals, a, b)
			checkAggRange(t, tr, vals, b, a)
		}
	})
}

var benchSink column.Agg

// BenchmarkTreeAggRange times one converged SUM on 4M rows at β = 64,
// from a point to the whole domain: with the prefix sums the cost must not
// depend on the length of the run. Dense rows lie on their blocks' lines
// and hold no planes; sorted uniform rows over 2^40 keep 24-bit planes, a
// lookup's rank a binary search through them.
func BenchmarkTreeAggRange(b *testing.B) {
	const n = 4 << 20
	dense := make([]int64, n)
	for i := range dense {
		dense[i] = int64(i)
	}
	for _, in := range []struct {
		name string
		vals []int64
	}{{"dense", dense}, {"uniform40", sortedRandom(rand.New(rand.NewSource(2)), n, 1<<40)}} {
		tr, err := Build(in.vals, 64)
		if err != nil {
			b.Fatal(err)
		}
		for _, sel := range []float64{0, 0.0001, 0.1, 1} {
			name := fmt.Sprintf("%s/sel=%g", in.name, sel)
			rows := int(sel * n)
			if sel == 0 {
				name, rows = in.name+"/point", 1
			}
			b.Run(name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				for b.Loop() {
					p := rng.Intn(n - rows + 1)
					benchSink, _ = tr.AggRange(in.vals[p], in.vals[p+rows-1], column.AggSum|column.AggCount)
				}
			})
		}
	}
}

// BenchmarkTreeBuild times the one-shot build — the pack, the keys and
// the prefix sums — of 4M sorted uniform rows at β = 64 over a pool of one
// and of two; ns/row is what costmodel's PackRow prices.
func BenchmarkTreeBuild(b *testing.B) {
	const n = 4 << 20
	vals := sortedRandom(rand.New(rand.NewSource(1)), n, n)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := parallel.New(workers)
			for b.Loop() {
				bd, err := NewBuilder(vals, 64)
				if err != nil {
					b.Fatal(err)
				}
				bd.Step(pool, bd.Blocks())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
