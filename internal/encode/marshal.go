package encode

import (
	"encoding/binary"
	"fmt"

	"repro/internal/column"
)

// Segment wire layout (little-endian), used for encoded snapshot
// payloads (DESIGN.md section 12). Integrity is the container's job —
// durable snapshots already CRC their whole payload — so this header
// carries structure, not checksums:
//
//	u8  kind (raw | forbp | dict)
//	u8  width (packed bits per row; 0 for raw)
//	u16 reserved (must be zero)
//	u32 dictionary entries (dict only, else 0)
//	u64 rows
//	i64 min, i64 max, i64 ref
//	dictionary entries × i64 (sorted ascending)
//	payload: rows × i64 (raw) or packed words × u64
const headerLen = 1 + 1 + 2 + 4 + 8 + 8 + 8 + 8

// payloadWords is the number of packed words Marshal writes: the
// in-memory pad word (see packedWords) is an implementation detail of the
// branch-free gather and stays out of the wire format.
func (s *Segment) payloadWords() int {
	if s.kind == KindRaw || s.width == 0 {
		return 0
	}
	return packedWords(s.n, uint(s.width))
}

// MarshaledSize returns the exact length Marshal will produce.
func (s *Segment) MarshaledSize() int {
	return headerLen + 8*(len(s.dict)+len(s.raw)+s.payloadWords())
}

// Marshal serializes the segment.
func (s *Segment) Marshal() []byte {
	out := make([]byte, headerLen, s.MarshaledSize())
	out[0] = byte(s.kind)
	out[1] = s.width
	binary.LittleEndian.PutUint32(out[4:], uint32(len(s.dict)))
	binary.LittleEndian.PutUint64(out[8:], uint64(s.n))
	binary.LittleEndian.PutUint64(out[16:], uint64(s.min))
	binary.LittleEndian.PutUint64(out[24:], uint64(s.max))
	binary.LittleEndian.PutUint64(out[32:], uint64(s.ref))
	var scratch [8]byte
	for _, v := range s.dict {
		binary.LittleEndian.PutUint64(scratch[:], uint64(v))
		out = append(out, scratch[:]...)
	}
	for _, v := range s.raw {
		binary.LittleEndian.PutUint64(scratch[:], uint64(v))
		out = append(out, scratch[:]...)
	}
	for _, w := range s.words[:s.payloadWords()] {
		binary.LittleEndian.PutUint64(scratch[:], w)
		out = append(out, scratch[:]...)
	}
	return out
}

// Unmarshal reconstructs a segment, copying out of data (the caller's
// buffer is not retained). The structural invariants the kernels rely
// on are re-validated — canonical widths, domain-safe bounds, sorted
// dictionary, exact payload length — so a segment that unmarshals
// cleanly is safe to scan.
func Unmarshal(data []byte) (*Segment, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("encode: segment truncated (%d bytes)", len(data))
	}
	kind := Kind(data[0])
	width := data[1]
	if data[2] != 0 || data[3] != 0 {
		return nil, fmt.Errorf("encode: nonzero reserved header bytes")
	}
	dictLen := int(binary.LittleEndian.Uint32(data[4:]))
	n64 := binary.LittleEndian.Uint64(data[8:])
	min := int64(binary.LittleEndian.Uint64(data[16:]))
	max := int64(binary.LittleEndian.Uint64(data[24:]))
	ref := int64(binary.LittleEndian.Uint64(data[32:]))
	const maxRows = uint64(1) << 40 // compared unsigned: a count past 2^63 is not a negative one
	if n64 == 0 || n64 > maxRows {
		return nil, fmt.Errorf("encode: implausible row count %d", n64)
	}
	n := int(n64)
	if min > max || min <= -column.MaxMagnitude || max >= column.MaxMagnitude {
		return nil, fmt.Errorf("encode: zone statistics out of domain (min=%d max=%d)", min, max)
	}
	body := data[headerLen:]
	takeInt64s := func(count int) ([]int64, error) {
		if len(body) < 8*count {
			return nil, fmt.Errorf("encode: segment payload truncated (need %d words, have %d bytes)", count, len(body))
		}
		vs := make([]int64, count)
		for i := range vs {
			vs[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
		}
		body = body[8*count:]
		return vs, nil
	}
	s := &Segment{kind: kind, n: n, min: min, max: max, ref: ref, width: width}
	switch kind {
	case KindRaw:
		if dictLen != 0 || width != 0 || ref != 0 {
			return nil, fmt.Errorf("encode: malformed raw segment header")
		}
		raw, err := takeInt64s(n)
		if err != nil {
			return nil, err
		}
		s.raw = raw
	case KindFORBP:
		if dictLen != 0 || ref != min || width != forWidth(min, max) {
			return nil, fmt.Errorf("encode: malformed forbp segment header (width=%d ref=%d min=%d max=%d)", width, ref, min, max)
		}
		words, err := takeInt64s(packedWords(n, uint(width)))
		if err != nil {
			return nil, err
		}
		s.words = asUint64s(words)
	case KindDict:
		if dictLen < 1 || dictLen > dictMaxCard || ref != 0 || width != codeWidth(dictLen) {
			return nil, fmt.Errorf("encode: malformed dict segment header (card=%d width=%d)", dictLen, width)
		}
		dict, err := takeInt64s(dictLen)
		if err != nil {
			return nil, err
		}
		for i := 1; i < len(dict); i++ {
			if dict[i-1] >= dict[i] {
				return nil, fmt.Errorf("encode: dictionary not strictly ascending at entry %d", i)
			}
		}
		if dict[0] != min || dict[len(dict)-1] != max {
			return nil, fmt.Errorf("encode: dictionary extrema disagree with zone statistics")
		}
		s.dict = dict
		words, err := takeInt64s(packedWords(n, uint(width)))
		if err != nil {
			return nil, err
		}
		s.words = asUint64s(words)
		// Every stored code must index the dictionary: the scan kernels
		// look values up unguarded, so an out-of-range code would panic
		// at query time instead of failing recovery here.
		if width > 0 {
			w := uint(width)
			valmask := (uint64(1) << w) - 1
			bit := uint(0)
			for i := 0; i < n; i++ {
				word := bit >> 6
				off := bit & 63
				c := (s.words[word]>>off | s.words[word+1]<<(64-off)) & valmask
				bit += w
				if c >= uint64(dictLen) {
					return nil, fmt.Errorf("encode: code %d out of dictionary range %d", c, dictLen)
				}
			}
		}
	default:
		return nil, fmt.Errorf("encode: unknown segment kind %d", kind)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("encode: %d trailing bytes after segment payload", len(body))
	}
	return s, nil
}

// asUint64s reinterprets decoded words element-wise (same bits),
// re-appending the in-memory pad word the kernels' gather relies on.
func asUint64s(vs []int64) []uint64 {
	out := make([]uint64, len(vs)+1)
	for i, v := range vs {
		out[i] = uint64(v)
	}
	return out
}
