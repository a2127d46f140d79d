package encode

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/column"
)

// datasets the property tests sweep: every shape the selector must
// handle — dense permutations, skew, low cardinality, constants,
// negatives, wide domains near the ±2^62 limit.
func testDatasets(n int, seed int64) map[string][]int64 {
	rng := rand.New(rand.NewSource(seed))
	uniform := rng.Perm(n)
	vals := func(f func(i int) int64) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = f(i)
		}
		return vs
	}
	return map[string][]int64{
		"uniform":  vals(func(i int) int64 { return int64(uniform[i]) }),
		"skewed":   vals(func(i int) int64 { return int64(n)/2 + rng.Int63n(int64(n)/10+1) }),
		"lowcard":  vals(func(i int) int64 { return int64(rng.Intn(7)) * 1_000_003 }),
		"binary":   vals(func(i int) int64 { return int64(rng.Intn(2)) }),
		"constant": vals(func(i int) int64 { return -42 }),
		"negative": vals(func(i int) int64 { return rng.Int63n(2_000_000) - 1_000_000 }),
		"wide": vals(func(i int) int64 {
			return rng.Int63n(column.MaxMagnitude-1)*(int64(i%2)*2-1) + int64(i%2)
		}),
	}
}

func testModes() []Mode { return []Mode{ModeRaw, ModeAuto, ModeFORBP, ModeDict} }

// aggsCases covers the kernel paths: the SUM/COUNT fast path, the
// MIN/MAX tracking path, and the full mask.
func aggsCases() []column.Aggregates {
	return []column.Aggregates{
		(column.AggSum | column.AggCount).Normalize(),
		(column.AggMin | column.AggMax).Normalize(),
		column.AggAll.Normalize(),
	}
}

// TestModeParseRoundTrip pins the wire spellings.
func TestModeParseRoundTrip(t *testing.T) {
	for _, m := range testModes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if m, err := ParseMode(""); err != nil || m != ModeRaw {
		t.Fatalf("ParseMode(\"\") = %v, %v; want ModeRaw", m, err)
	}
	if _, err := ParseMode("zstd"); err == nil {
		t.Fatal("ParseMode accepted an unknown encoding")
	}
}

// TestAggRangeOracle sweeps dataset × mode × predicate × aggregate mask
// and requires the compressed scan to be bit-identical to the branching
// oracle over the raw values — including empty matches (sentinel
// extrema) and degenerate single-point ranges.
func TestAggRangeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, vs := range testDatasets(777, 2) {
		mn, mx := column.MinMax(vs)
		span := mx - mn
		for _, mode := range testModes() {
			seg, err := New(vs, mn, mx, mode)
			if err != nil {
				t.Fatalf("%s/%v: New: %v", name, mode, err)
			}
			if seg.Len() != len(vs) {
				t.Fatalf("%s/%v: Len = %d, want %d", name, mode, seg.Len(), len(vs))
			}
			preds := [][2]int64{
				{mn, mx},           // everything
				{mn - 10, mx + 10}, // clamped on both sides
				{mx + 1, mx + 100}, // empty above
				{mn - 100, mn - 1}, // empty below
				{mn, mn}, {mx, mx}, // single points at the zone edges
				{mn + span/3, mn + span/3}, // interior point (may miss every row)
				{hi(mn, mx), lo(mn, mx)},   // inverted => empty
			}
			for i := 0; i < 40; i++ {
				a := mn + rng.Int63n(span+1)
				b := mn + rng.Int63n(span+1)
				if a > b {
					a, b = b, a
				}
				preds = append(preds, [2]int64{a, b})
			}
			for _, p := range preds {
				want := clampOracle(vs, mn, mx, p[0], p[1])
				for _, aggs := range aggsCases() {
					got := seg.AggRange(p[0], p[1], aggs)
					if !aggEqual(got, want, aggs) {
						t.Fatalf("%s/%v (kind %v) AggRange(%d, %d, %v) = %+v, oracle %+v",
							name, mode, seg.Kind(), p[0], p[1], aggs, got, want)
					}
				}
			}
		}
	}
}

func lo(mn, mx int64) int64 { return mn + (mx-mn)/4 }
func hi(mn, mx int64) int64 { return mx - (mx-mn)/4 }

// clampOracle replays the segment kernels' clamp-then-scan contract on
// raw values: the oracle's Sum for an unclamped range is identical
// anyway (clamping never changes which rows match), so this just runs
// the branching oracle directly.
func clampOracle(vs []int64, mn, mx, plo, phi int64) column.Agg {
	return column.AggRangeBranching(vs, plo, phi)
}

// aggEqual compares the fields the mask promises. Sum and Count are
// always maintained by every kernel; Min/Max only on the extrema path
// (otherwise both sides hold sentinels).
func aggEqual(got, want column.Agg, aggs column.Aggregates) bool {
	if got.Count != want.Count || got.Sum != want.Sum {
		return false
	}
	if aggs.NeedsMinMax() && (got.Min != want.Min || got.Max != want.Max) {
		return false
	}
	return true
}

// TestDecodeRoundTrip: Decode must reproduce the original rows in
// order for every dataset and mode.
func TestDecodeRoundTrip(t *testing.T) {
	for name, vs := range testDatasets(513, 4) {
		mn, mx := column.MinMax(vs)
		for _, mode := range testModes() {
			seg, err := New(vs, mn, mx, mode)
			if err != nil {
				t.Fatal(err)
			}
			got := seg.Decode()
			if len(got) != len(vs) {
				t.Fatalf("%s/%v: decoded %d rows, want %d", name, mode, len(got), len(vs))
			}
			for i := range vs {
				if got[i] != vs[i] {
					t.Fatalf("%s/%v: row %d decoded to %d, want %d", name, mode, i, got[i], vs[i])
				}
			}
		}
	}
}

// TestMarshalRoundTrip serializes and reconstructs each segment, then
// re-checks decode identity and a few scans.
func TestMarshalRoundTrip(t *testing.T) {
	for name, vs := range testDatasets(300, 5) {
		mn, mx := column.MinMax(vs)
		for _, mode := range testModes() {
			seg, err := New(vs, mn, mx, mode)
			if err != nil {
				t.Fatal(err)
			}
			blob := seg.Marshal()
			if len(blob) != seg.MarshaledSize() {
				t.Fatalf("%s/%v: Marshal produced %d bytes, MarshaledSize says %d", name, mode, len(blob), seg.MarshaledSize())
			}
			back, err := Unmarshal(blob)
			if err != nil {
				t.Fatalf("%s/%v: Unmarshal: %v", name, mode, err)
			}
			if back.Kind() != seg.Kind() || back.Len() != seg.Len() || back.Min() != seg.Min() || back.Max() != seg.Max() {
				t.Fatalf("%s/%v: round-trip header mismatch", name, mode)
			}
			dec := back.Decode()
			for i := range vs {
				if dec[i] != vs[i] {
					t.Fatalf("%s/%v: round-trip row %d = %d, want %d", name, mode, i, dec[i], vs[i])
				}
			}
			want := column.AggRangeBranching(vs, mn+1, mx-1)
			if got := back.AggRange(mn+1, mx-1, column.AggAll.Normalize()); got != want {
				t.Fatalf("%s/%v: post-round-trip scan %+v, oracle %+v", name, mode, got, want)
			}
		}
	}
}

// TestUnmarshalRejectsCorruption flips bytes across a marshalled
// segment and requires Unmarshal to either reject the blob or produce
// a structurally safe segment — never panic.
func TestUnmarshalRejectsCorruption(t *testing.T) {
	vs := testDatasets(200, 6)["lowcard"]
	mn, mx := column.MinMax(vs)
	for _, mode := range []Mode{ModeRaw, ModeFORBP, ModeDict} {
		seg, err := New(vs, mn, mx, mode)
		if err != nil {
			t.Fatal(err)
		}
		blob := seg.Marshal()
		if _, err := Unmarshal(blob[:len(blob)-1]); err == nil {
			t.Fatalf("%v: truncated blob accepted", mode)
		}
		if _, err := Unmarshal(blob[:headerLen-2]); err == nil {
			t.Fatalf("%v: header-only blob accepted", mode)
		}
		for pos := 0; pos < len(blob); pos += 7 {
			mut := append([]byte(nil), blob...)
			mut[pos] ^= 0x5a
			s, err := Unmarshal(mut)
			if err != nil || s == nil {
				continue
			}
			// Accepted mutations must still scan without panicking.
			s.AggRange(mn, mx, column.AggAll.Normalize())
			s.Decode()
		}
	}
}

// FuzzUnmarshal feeds Unmarshal arbitrary bytes — it reads segments back
// from snapshot files — and holds it to its contract: reject the blob, or
// return a segment that marshals back to exactly those bytes and that
// every kernel can scan without panicking. Run with
// `go test -fuzz FuzzUnmarshal ./internal/encode`; the corpus under
// testdata/fuzz/FuzzUnmarshal (Marshal of one raw, one FOR-BP and one
// dictionary segment) runs on every plain `go test`.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Unmarshal(data)
		if err != nil {
			return
		}
		if !bytes.Equal(s.Marshal(), data) {
			t.Fatalf("accepted blob does not marshal back: %x", data)
		}
		if s.Len() > 1<<16 {
			return // a constant run needs no payload: do not decode 2^40 rows
		}
		if got := len(s.Decode()); got != s.Len() {
			t.Fatalf("decoded %d rows of %d", got, s.Len())
		}
		s.AggRange(s.Min(), s.Max(), column.AggAll.Normalize())
		mask := make([]uint64, column.MaskWords(s.Len()))
		column.FillMask(mask, s.Len())
		s.Refine(s.Min(), s.Max(), mask)
		s.AggMasked(mask, column.AggAll.Normalize())
	})
}

// TestAutoSelection pins the selector: dense permutations pack with
// FOR-BP, low-cardinality segments pick the dictionary, and segments
// whose FOR width is nearly 64 bits stay raw.
func TestAutoSelection(t *testing.T) {
	ds := testDatasets(2000, 7)
	cases := map[string]Kind{
		"uniform":  KindFORBP,
		"skewed":   KindFORBP,
		"lowcard":  KindDict,
		"binary":   KindFORBP, // width 1 already beats dict + overhead
		"constant": KindFORBP, // width 0
		"wide":     KindRaw,
	}
	for name, wantKind := range cases {
		vs := ds[name]
		mn, mx := column.MinMax(vs)
		seg, err := New(vs, mn, mx, ModeAuto)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Kind() != wantKind {
			t.Fatalf("auto(%s): kind %v, want %v (width %d)", name, seg.Kind(), wantKind, seg.width)
		}
	}
	// Forced dict on high-cardinality input degrades to FOR-BP rather
	// than failing: sealing must always succeed.
	vs := make([]int64, 2*dictMaxCard)
	for i := range vs {
		vs[i] = int64(i)
	}
	seg, err := New(vs, 0, int64(len(vs)-1), ModeDict)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Kind() != KindFORBP {
		t.Fatalf("forced dict above the cardinality cap produced %v, want forbp fallback", seg.Kind())
	}
}

// TestCompressionRatio guards the storage targets at the package level,
// at n = 1M. A dense permutation of [0, n) packs to 20 bits/row — well
// over a 2x bytes-per-row reduction. A low-cardinality column, 1 000
// distinct values spread over a 40-bit domain, is dictionary territory:
// 10-bit codes where the frame of reference needs 40 bits.
func TestCompressionRatio(t *testing.T) {
	n := 1 << 20
	rng := rand.New(rand.NewSource(8))
	uniform := make([]int64, n)
	for i, v := range rng.Perm(n) {
		uniform[i] = int64(v)
	}
	dict := make([]int64, 1000)
	for i := range dict {
		dict[i] = rng.Int63n(1 << 40)
	}
	lowcard := make([]int64, n)
	for i := range lowcard {
		lowcard[i] = dict[rng.Intn(len(dict))]
	}
	for _, tc := range []struct {
		name     string
		vs       []int64
		mode     Mode
		kind     Kind
		min, max float64 // bytes per row
	}{
		{"uniform", uniform, ModeAuto, KindFORBP, 0, 4.0},
		{"lowcard", lowcard, ModeDict, KindDict, 0, 1.3},
		{"lowcard", lowcard, ModeAuto, KindDict, 0, 1.3},
		{"lowcard", lowcard, ModeFORBP, KindFORBP, 4.9, 5.0},
	} {
		mn, mx := column.MinMax(tc.vs)
		seg, err := New(tc.vs, mn, mx, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		bpr := seg.BytesPerRow()
		t.Logf("%s as %v: %v at %.4f bytes/row", tc.name, tc.mode, seg.Kind(), bpr)
		if seg.Kind() != tc.kind || bpr < tc.min || bpr > tc.max {
			t.Errorf("%s as %v: %v at %.4f bytes/row, want %v within [%g, %g]",
				tc.name, tc.mode, seg.Kind(), bpr, tc.kind, tc.min, tc.max)
		}
	}
}

// TestScanZeroAllocs pins the compressed scan path at zero heap
// allocations: the only materialization is the per-block stack buffer.
func TestScanZeroAllocs(t *testing.T) {
	vs := testDatasets(20000, 9)
	for _, tc := range []struct {
		name string
		mode Mode
	}{{"uniform", ModeFORBP}, {"lowcard", ModeDict}} {
		data := vs[tc.name]
		mn, mx := column.MinMax(data)
		seg, err := New(data, mn, mx, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, aggs := range aggsCases() {
			aggs := aggs
			if n := testing.AllocsPerRun(50, func() {
				seg.AggRange(mn+5, mx-5, aggs)
			}); n != 0 {
				t.Fatalf("%s/%v AggRange(%v): %.1f allocs/op, want 0", tc.name, tc.mode, aggs, n)
			}
		}
	}
}

// TestEmptyAndErrors pins the constructor error contract.
func TestEmptyAndErrors(t *testing.T) {
	if _, err := New(nil, 0, 0, ModeAuto); err != ErrEmpty {
		t.Fatalf("New(empty) = %v, want ErrEmpty", err)
	}
	if _, err := New([]int64{1}, 2, 1, ModeAuto); err == nil {
		t.Fatal("inverted stats accepted")
	}
	if _, err := New([]int64{0}, -column.MaxMagnitude, 0, ModeAuto); err == nil {
		t.Fatal("out-of-domain min accepted")
	}
}
