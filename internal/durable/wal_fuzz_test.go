package durable

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fault"
)

// scanWAL replays dir's log from scratch and reports what it yielded and
// the bytes it allocated doing so.
func scanWAL(t *testing.T, dir string) (replayResult, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := replayWAL(dir, fault.OS(), 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return res, after.TotalAlloc - before.TotalAlloc
}

// dirBytes is the total size of dir's segments.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	starts, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range starts {
		st, err := os.Stat(filepath.Join(dir, segmentName(s)))
		if err != nil {
			t.Fatal(err)
		}
		n += st.Size()
	}
	return n
}

// FuzzWALScan feeds the WAL reader (readFrame) and replayWAL's torn-tail
// repair two kinds of log. First raw, as it is: one segment, or two split
// at split. Then a log a real writer wrote — raw's bytes as values, in
// batches over two segments — with its last segment cut to cut bytes and,
// when flip is non-zero, one byte of it flipped. The scan never panics and
// allocates no more than a few times the bytes on disk, however large a
// length field claims to be. A real log yields a prefix of the batches
// written — exactly the whole frames before the cut when nothing was
// flipped — and the repair leaves exactly those frames: the repaired log
// replays the same batches with nothing left to repair.
func FuzzWALScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, split, cut uint16, flip byte) {
		check := func(dir string, written [][]int64) replayResult {
			size := dirBytes(t, dir)
			res, alloc := scanWAL(t, dir)
			if limit := 6*uint64(size) + 1<<16; alloc > limit {
				t.Fatalf("replaying %d bytes allocated %d", size, alloc)
			}
			if written != nil && (len(res.batches) > len(written) || !slices.EqualFunc(res.batches, written[:len(res.batches)], slices.Equal)) {
				t.Fatalf("replayed %v, not a prefix of the %d batches written", res.batches, len(written))
			}
			again, _ := scanWAL(t, dir)
			if again.repaired || !slices.EqualFunc(again.batches, res.batches, slices.Equal) {
				t.Fatalf("the repaired log replays %d batches (repaired %v), the repair kept %d", len(again.batches), again.repaired, len(res.batches))
			}
			return res
		}

		dir := t.TempDir()
		parts := [][]byte{raw}
		if s := int(split); s > 0 && s < len(raw) {
			parts = [][]byte{raw[:s], raw[s:]}
		}
		for i, p := range parts {
			if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(1+i*1000))), p, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		check(dir, nil)

		dir = t.TempDir()
		w, err := openWAL(dir, SyncOff, fault.OS(), 1)
		if err != nil {
			t.Fatal(err)
		}
		var written [][]int64
		var ends []int64 // where each frame of the last segment ends
		for i := 0; len(raw) > 0 && i < 6; i++ {
			if i == 2 {
				if err := w.roll(); err != nil {
					t.Fatal(err)
				}
				ends = ends[:0]
			}
			n := min(1+i%3, (len(raw)+7)/8)
			batch := make([]int64, n)
			for j := range batch {
				var word [8]byte
				raw = raw[copy(word[:], raw):]
				batch[j] = int64(binary.LittleEndian.Uint64(word[:]))
			}
			if _, err := w.append(batch); err != nil {
				t.Fatal(err)
			}
			written = append(written, batch)
			ends = append(ends, w.off)
		}
		if err := w.close(); err != nil || len(written) == 0 {
			return
		}
		last := filepath.Join(dir, segmentName(w.segStart))
		keep := int64(cut) % (w.off + 1)
		if err := os.Truncate(last, keep); err != nil {
			t.Fatal(err)
		}
		if flip != 0 && keep > 0 {
			b, _ := os.ReadFile(last)
			b[int(flip)%len(b)] ^= flip
			os.WriteFile(last, b, 0o644)
		}
		res := check(dir, written)
		if flip == 0 {
			whole := 0
			for whole < len(ends) && ends[whole] <= keep {
				whole++
			}
			first := len(written) - len(ends)
			if len(res.batches) != first+whole {
				t.Fatalf("cut at %d of %d: replayed %d batches, want %d", keep, w.off, len(res.batches), first+whole)
			}
			want := int64(0)
			if whole > 0 {
				want = ends[whole-1]
			}
			if st, err := os.Stat(last); err != nil || st.Size() != want {
				t.Fatalf("cut at %d: the repair left %v (%v), the whole frames end at %d", keep, st, err, want)
			}
		}
	})
}
