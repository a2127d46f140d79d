// Package encode provides compressed shard/segment storage with scan
// kernels that aggregate directly over the packed representation
// (DESIGN.md section 12). Three encodings cover the workloads this
// repository serves:
//
//   - FOR-BP: frame-of-reference + bit-packing. Every value is stored
//     as the non-negative delta v - min in the minimum bit width that
//     holds max - min, 64 values per block, bit-sliced into one plane
//     word per delta bit. The range predicate is rewritten into FOR
//     space once per scan and evaluated word-parallel — 64 rows per
//     plane operation — so narrow segments scan faster than the raw
//     kernel while answers stay bit-identical.
//   - Dict: dictionary encoding for low-cardinality segments. Distinct
//     values are stored once, sorted ascending; rows become bit-packed
//     codes. A range predicate over values becomes a contiguous code
//     range by binary search on the dictionary.
//   - Raw: passthrough for incompressible segments, so the automatic
//     selector can always produce a Segment and callers need one code
//     path.
//
// Selection uses exactly the statistics the shard partitioner already
// computes (min/max, column.NewWithStats) plus a capped cardinality
// probe. A Segment is one encoded run; a shard stores its rows as
// Blocks, consecutive BlockRows-row segments (blocks.go). Kernels are
// answer-bit-identical to the raw column kernels
// (column.AggRange) at every worker count: SUM wraps mod 2^64, so
// summing deltas and adding count*ref afterwards reconstructs the raw
// sum exactly.
package encode

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/column"
)

// Mode selects how a segment is encoded. The zero value is Raw so that
// an unset option field keeps today's uncompressed behavior.
type Mode uint8

// Encoding modes, in wire-option order.
const (
	// ModeRaw stores values uncompressed (passthrough).
	ModeRaw Mode = iota
	// ModeAuto picks Raw, FORBP, or Dict per segment from its stats.
	ModeAuto
	// ModeFORBP forces frame-of-reference + bit-packing.
	ModeFORBP
	// ModeDict forces dictionary encoding (falls back to FOR-BP when
	// the cardinality probe overflows, so forcing it is always safe).
	ModeDict
)

// Compressed reports whether the mode stores anything other than raw
// int64s (i.e. whether the compressed serving pipeline is engaged).
func (m Mode) Compressed() bool { return m != ModeRaw }

// Check refuses a mode that does not exist.
func (m Mode) Check() error {
	if m > ModeDict {
		return fmt.Errorf("encode: unknown mode %d", m)
	}
	return nil
}

// String returns the wire spelling used by Options/catalog/server.
func (m Mode) String() string {
	switch m {
	case ModeRaw:
		return "raw"
	case ModeAuto:
		return "auto"
	case ModeFORBP:
		return "forbp"
	case ModeDict:
		return "dict"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode parses the wire spelling. The empty string is ModeRaw (the
// default: compression is opt-in per table).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "raw":
		return ModeRaw, nil
	case "auto":
		return ModeAuto, nil
	case "forbp":
		return ModeFORBP, nil
	case "dict":
		return ModeDict, nil
	}
	return ModeRaw, fmt.Errorf("encode: unknown encoding %q (want auto, raw, forbp or dict)", s)
}

// Kind is the concrete representation a segment ended up with (Auto
// resolves to one of the other three at encode time).
type Kind uint8

// Segment kinds.
const (
	KindRaw Kind = iota
	KindFORBP
	KindDict
)

// String returns the wire spelling ("raw", "forbp", "dict").
func (k Kind) String() string {
	switch k {
	case KindRaw:
		return "raw"
	case KindFORBP:
		return "forbp"
	case KindDict:
		return "dict"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// blockLen is the number of values per packed block. A block of width-w
// values occupies exactly w uint64 words, so every value's bits end on
// the block boundary and the unpacker never reads past its block.
const blockLen = 64

// dictMaxCard caps the cardinality probe: segments with more distinct
// values than this never use dictionary encoding (the probe aborts as
// soon as the cap is crossed, so high-cardinality segments pay one map
// insert per row only until ~dictMaxCard distinct values are seen).
const dictMaxCard = 4096

// rawWidthFloor is the packed width at which FOR-BP stops paying: at 58
// of 64 bits the space win is under 10%, not worth the unpack work.
const rawWidthFloor = 58

// ErrEmpty is returned when encoding zero rows.
var ErrEmpty = errors.New("encode: empty segment")

// Segment is one immutable encoded run of rows. It is safe for
// concurrent readers; there are no mutators.
type Segment struct {
	kind Kind
	n    int
	min  int64
	max  int64

	// FOR-BP: value i is stored as uint64(v - ref) in width bits.
	// Dict: value i is stored as its dictionary code in width bits.
	// width == 0 means every stored delta/code is zero (constant
	// segment / single-entry dictionary) and words is empty.
	ref   int64
	width uint8
	words []uint64

	// Dict only: sorted-ascending distinct values; codes index it.
	dict []int64

	// Raw only.
	raw []int64
}

// New encodes values under mode. Like column.NewWithStats, min/max are
// trusted as the true extrema (the shard partitioner and the column's
// zone maintenance already computed them); values must lie strictly
// inside the kernel-safe ±2^62 domain, which both enforce. The input
// slice is retained only by KindRaw segments — packed kinds copy the
// bits out, so callers may reuse the slice after encoding to a packed
// kind (Raw passthrough keeps column.New's hand-over-ownership rule).
func New(values []int64, min, max int64, mode Mode) (*Segment, error) {
	if err := check(len(values), min, max, mode); err != nil {
		return nil, err
	}
	s := &Segment{n: len(values), min: min, max: max}
	s.frame(mode, probeFor(values, min, max, mode))
	if s.kind == KindRaw {
		s.raw = values
		return s, nil
	}
	if k := s.slabWords(); k > 0 {
		s.words = make([]uint64, k)
	}
	s.fill(values)
	return s, nil
}

// check refuses what no run of rows may be encoded from: no rows,
// statistics that cannot be true, values outside the kernel-safe
// domain, a mode that does not exist.
func check(n int, min, max int64, mode Mode) error {
	switch {
	case n == 0:
		return ErrEmpty
	case min > max:
		return fmt.Errorf("encode: inverted zone statistics (min=%d max=%d)", min, max)
	case min <= -column.MaxMagnitude || max >= column.MaxMagnitude:
		return fmt.Errorf("encode: values must lie strictly inside ±2^62 (min=%d max=%d)", min, max)
	}
	return mode.Check()
}

// probeFor returns the dictionary a run's rows are coded against, nil
// when they are not: a forced dictionary whenever the cardinality probe
// fits, an automatic one only when the cardinality is low enough that
// codes + the dictionary beat FOR-BP deltas over the run's own frame.
func probeFor(values []int64, min, max int64, mode Mode) []int64 {
	if mode != ModeDict && mode != ModeAuto {
		return nil
	}
	dict := probeDict(values)
	if dict == nil || mode == ModeDict {
		return dict
	}
	codeW, forW := codeWidth(len(dict)), forWidth(min, max)
	dictBits := uint64(len(dict))*64 + uint64(len(values))*uint64(codeW)
	if codeW < forW && dictBits < uint64(len(values))*uint64(forW) {
		return dict
	}
	return nil
}

// frame picks the representation of one run — a whole segment, or one
// block of a longer run whose probed dictionary dict is — from its
// statistics, and sets its frame: kind, width and reference. A forced
// dictionary codes every run it was probed over (without one the probe
// overflowed: FOR-BP is the closest packed representation, and callers
// forcing dict want compression, not an error at seal time); the
// automatic mode takes the dictionary where its codes are narrower than
// the run's own FOR frame, raw when that frame is so close to 64 bits
// that unpacking buys nothing, FOR-BP otherwise.
func (s *Segment) frame(mode Mode, dict []int64) {
	forW := forWidth(s.min, s.max)
	switch {
	case mode == ModeRaw:
		s.kind = KindRaw
	case dict != nil && (mode == ModeDict || codeWidth(len(dict)) < forW):
		s.kind, s.width, s.dict = KindDict, codeWidth(len(dict)), dict
	case mode == ModeAuto && forW >= rawWidthFloor:
		s.kind = KindRaw
	default:
		s.kind, s.ref, s.width = KindFORBP, s.min, forW
	}
}

// slabWords is the number of words a framed segment packs into: its
// planes or codes, and the pad word of a dictionary's (see packedWords);
// none at width 0 or raw.
func (s *Segment) slabWords() int {
	switch {
	case s.kind == KindRaw || s.width == 0:
		return 0
	case s.kind == KindDict:
		return packedWords(s.n, uint(s.width)) + 1
	}
	return packedWords(s.n, uint(s.width))
}

// fill packs values, the framed segment's rows, into its zeroed words of
// slabWords length, or copies them into its raw rows.
func (s *Segment) fill(values []int64) {
	switch {
	case s.kind == KindRaw:
		copy(s.raw, values)
	case s.width == 0:
	case s.kind == KindFORBP:
		packVertical(s.words, values, s.ref, uint(s.width))
	default:
		packCodes(s.words, values, s.dict, uint(s.width))
	}
}

// forWidth is the packed bit width for the value domain [min, max]:
// enough bits for the largest delta max-min. Both bounds lie strictly
// inside ±2^62, so the delta is below 2^63 and the width is at most 63
// — deltas reinterpreted as int64 stay non-negative, which is what
// keeps the sign-bit comparison kernel valid in FOR space.
func forWidth(min, max int64) uint8 {
	return uint8(bits.Len64(uint64(max - min)))
}

// codeWidth is the packed bit width for a dictionary of card entries.
func codeWidth(card int) uint8 {
	return uint8(bits.Len64(uint64(card - 1)))
}

// probeDict collects the distinct values of vs sorted ascending, or
// nil if there are more than dictMaxCard of them (abort on overflow:
// the map never grows past the cap + 1).
func probeDict(vs []int64) []int64 {
	seen := make(map[int64]struct{}, dictMaxCard)
	for _, v := range vs {
		if _, ok := seen[v]; !ok {
			if len(seen) == dictMaxCard {
				return nil
			}
			seen[v] = struct{}{}
		}
	}
	dict := make([]int64, 0, len(seen))
	for v := range seen {
		dict = append(dict, v)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	return dict
}

// Len returns the number of rows in the segment.
func (s *Segment) Len() int { return s.n }

// Kind returns the concrete representation.
func (s *Segment) Kind() Kind { return s.kind }

// Min returns the smallest value (zone statistic).
func (s *Segment) Min() int64 { return s.min }

// Max returns the largest value (zone statistic).
func (s *Segment) Max() int64 { return s.max }

// SizeBytes returns the resident payload size: packed words plus the
// dictionary (or the raw slice). Struct headers are excluded — they are
// O(1) per segment and identical across kinds.
func (s *Segment) SizeBytes() int {
	return 8 * (len(s.words) + len(s.dict) + len(s.raw))
}

// BytesPerRow returns the resident bytes per row (8.0 for raw).
func (s *Segment) BytesPerRow() float64 {
	return float64(s.SizeBytes()) / float64(s.n)
}

// Decode materializes the rows in their original order into a new
// slice. This is the claim path: it runs only when a progressive index
// build takes ownership of the segment, never during scans.
func (s *Segment) Decode() []int64 {
	return s.AppendTo(make([]int64, 0, s.n))
}

// AppendTo appends the decoded rows (original order) to dst.
func (s *Segment) AppendTo(dst []int64) []int64 {
	switch s.kind {
	case KindRaw:
		return append(dst, s.raw...)
	case KindFORBP:
		return s.appendFORBP(dst)
	case KindDict:
		return s.appendDict(dst)
	}
	panic(fmt.Sprintf("encode: corrupt segment kind %d", s.kind))
}

// AggRange computes the requested aggregates over rows v with
// lo <= v <= hi, scanning the packed representation directly. The
// answer is bit-identical to column.AggRange over the decoded rows.
func (s *Segment) AggRange(lo, hi int64, aggs column.Aggregates) column.Agg {
	if lo < s.min {
		lo = s.min
	}
	if hi > s.max {
		hi = s.max
	}
	if lo > hi {
		return column.NewAgg()
	}
	switch s.kind {
	case KindRaw:
		return column.AggRange(s.raw, lo, hi, aggs)
	case KindFORBP:
		return s.aggFORBP(lo, hi, aggs)
	case KindDict:
		return s.aggDict(lo, hi, aggs)
	}
	panic(fmt.Sprintf("encode: corrupt segment kind %d", s.kind))
}

// packedWords is the number of payload words for n values at width w:
// w words per full-or-partial block of 64 values, identical for the
// vertical (FOR-BP planes) and horizontal (dict codes) layouts. The
// horizontal layout's in-memory slice carries one extra zero pad word
// beyond this so the two-word gather in the dict kernels is
// branch-free: a value ending exactly on the block boundary still
// reads "the next word", and Go defines x << 64 as 0, so the pad
// contributes nothing.
func packedWords(n int, w uint) int {
	return ((n + blockLen - 1) / blockLen) * int(w)
}

// packCodes packs values' codes in the sorted dictionary dict — which
// holds every one of them; a value's code is its position — horizontally
// into the zeroed words dst: code i occupies bits [i*w, (i+1)*w) of the
// word stream, which ends in the pad word.
func packCodes(dst []uint64, values, dict []int64, w uint) {
	for i, v := range values {
		d := uint64(column.LowerBound(dict, v))
		bit := uint(i) * w
		word, off := bit>>6, bit&63
		dst[word] |= d << off
		if off+w > 64 {
			dst[word+1] |= d >> (64 - off)
		}
	}
}
