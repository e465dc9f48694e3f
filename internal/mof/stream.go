package mof

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"lsdgnn/internal/mem"
)

// Streaming entry points for putting the Tech-2 BDI codecs on a live wire.
// The offline Codec in frame.go models whole MoF frames; a serving RPC
// path instead compresses individual vector sections (request node-ID
// vectors, response adjacency IDs, attribute payloads) in place inside its
// own frames. VecCodec provides exactly that: self-describing, bounds-
// checked vector sections with a compress-only-if-smaller policy, plus
// running byte counters so the achieved compression ratio is observable
// without re-walking traffic.
//
// Section layout (all little-endian):
//
//	u32 count   element count (u64/u32 vectors) or byte length (raw)
//	u8  flags   bit0: payload is BDI-compressed
//	u32 encLen  payload length in bytes
//	...         payload
//
// The count is authoritative: a decoder verifies the decompressed payload
// matches it exactly, so a hostile section can neither over-allocate nor
// smuggle trailing bytes.

// Section flag bits.
const (
	// SectionBDI marks a section payload as BDI-compressed.
	SectionBDI = 1 << 0
)

// sectionHeaderSize is the fixed per-section overhead in bytes.
const sectionHeaderSize = 9

// VecCodec compresses and decompresses vector sections, tallying raw and
// encoded byte totals on both directions. Safe for concurrent use; the
// zero value is ready (and a nil *VecCodec still encodes/decodes, it just
// counts nothing).
type VecCodec struct {
	encRaw atomic.Int64 // pre-compression bytes on the encode path
	encOut atomic.Int64 // emitted payload bytes on the encode path
	decIn  atomic.Int64 // received payload bytes on the decode path
	decRaw atomic.Int64 // post-decompression bytes on the decode path
}

func (c *VecCodec) countEnc(raw, out int) {
	if c == nil {
		return
	}
	c.encRaw.Add(int64(raw))
	c.encOut.Add(int64(out))
}

func (c *VecCodec) countDec(in, raw int) {
	if c == nil {
		return
	}
	c.decIn.Add(int64(in))
	c.decRaw.Add(int64(raw))
}

// Ratio returns encoded-bytes / raw-bytes over everything this codec has
// processed in both directions; 1 when nothing compressed (or nothing
// processed), below 1 when BDI is winning.
func (c *VecCodec) Ratio() float64 {
	if c == nil {
		return 1
	}
	raw := c.encRaw.Load() + c.decRaw.Load()
	enc := c.encOut.Load() + c.decIn.Load()
	if raw == 0 {
		return 1
	}
	return float64(enc) / float64(raw)
}

// Bytes returns the cumulative (raw, encoded) byte totals across both
// directions.
func (c *VecCodec) Bytes() (raw, encoded int64) {
	if c == nil {
		return 0, 0
	}
	return c.encRaw.Load() + c.decRaw.Load(), c.encOut.Load() + c.decIn.Load()
}

// appendSection emits one section, compressing payload when allowed and
// smaller. Compression runs directly into dst past a reserved header —
// when it loses, dst is truncated back and the raw payload appended — so
// no intermediate encode buffer exists on either outcome.
func (c *VecCodec) appendSection(dst []byte, count uint32, payload []byte, tryBDI bool) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, count)
	flagAt := len(dst)
	dst = append(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // encLen, patched below
	body := len(dst)
	if tryBDI {
		dst = AppendBDICompress(dst, payload)
		if len(dst)-body >= len(payload) {
			dst = dst[:body] // compression lost; store raw
		} else {
			dst[flagAt] = SectionBDI
		}
	}
	if len(dst) == body {
		dst = append(dst, payload...)
	}
	encLen := len(dst) - body
	binary.LittleEndian.PutUint32(dst[flagAt+1:], uint32(encLen))
	c.countEnc(len(payload), encLen)
	return dst
}

// readSection parses one section header and returns the decompressed
// payload, the declared count, and the bytes following the section.
func (c *VecCodec) readSection(src []byte) (payload []byte, count uint32, rest []byte, err error) {
	if len(src) < sectionHeaderSize {
		return nil, 0, nil, fmt.Errorf("%w: truncated section header", ErrCorrupt)
	}
	count = binary.LittleEndian.Uint32(src)
	flags := src[4]
	encLen := binary.LittleEndian.Uint32(src[5:])
	body := src[sectionHeaderSize:]
	if uint64(len(body)) < uint64(encLen) {
		return nil, 0, nil, fmt.Errorf("%w: section payload %d bytes, header says %d", ErrCorrupt, len(body), encLen)
	}
	payload, rest = body[:encLen], body[encLen:]
	if flags&SectionBDI != 0 {
		dec, derr := BDIDecompress(payload)
		if derr != nil {
			return nil, 0, nil, derr
		}
		c.countDec(len(payload), len(dec))
		return dec, count, rest, nil
	}
	c.countDec(len(payload), len(payload))
	return payload, count, rest, nil
}

// AppendU64s appends a u64-vector section holding vals (BDI-compressed
// when smaller). Node-ID and address vectors are the paper's Tech-2 sweet
// spot: clustered 64-bit values collapse to narrow per-line deltas.
func (c *VecCodec) AppendU64s(dst []byte, vals []uint64) []byte {
	raw := mem.Bytes.Get(len(vals) * 8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[i*8:], v)
	}
	dst = c.appendSection(dst, uint32(len(vals)), raw, true)
	mem.Bytes.Put(raw)
	return dst
}

// SectionCount peeks the count field of the section at the head of src
// without decoding it, so a decoder can size a destination (or pooled
// scratch) up front. ok is false when src cannot hold a section header.
// The field is untrusted, so it is clamped to the most src could decode
// to — BDI yields at most one 64-bit word per encoded byte — and a
// hostile count cannot size a buffer out of proportion to its frame.
func SectionCount(src []byte) (n uint32, ok bool) {
	if len(src) < sectionHeaderSize {
		return 0, false
	}
	n = binary.LittleEndian.Uint32(src)
	if most := uint64(len(src)-sectionHeaderSize) * 8; uint64(n) > most {
		n = uint32(most)
	}
	return n, true
}

// ReadU64sInto parses a u64-vector section, appending the values to dst —
// the scratch-reuse form of ReadU64s for decode paths that convert or copy
// the values onward. Size dst via SectionCount to keep the append in one
// buffer.
func (c *VecCodec) ReadU64sInto(dst []uint64, src []byte) ([]uint64, []byte, error) {
	payload, count, rest, err := c.readSection(src)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(payload)) != uint64(count)*8 {
		return nil, nil, fmt.Errorf("%w: u64 section of %d bytes for %d values", ErrCorrupt, len(payload), count)
	}
	for i := 0; i < int(count); i++ {
		dst = append(dst, binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return dst, rest, nil
}

// ReadU64s parses a u64-vector section, returning the values and the
// remaining bytes.
func (c *VecCodec) ReadU64s(src []byte) ([]uint64, []byte, error) {
	n, _ := SectionCount(src)
	vals, rest, err := c.ReadU64sInto(make([]uint64, 0, n), src)
	if err != nil {
		return nil, nil, err
	}
	return vals, rest, nil
}

// AppendU32s appends a u32-vector section holding vals (degree and length
// vectors), sign-extended through the 32-bit BDI path when that is
// smaller.
func (c *VecCodec) AppendU32s(dst []byte, vals []uint32) []byte {
	raw := mem.Bytes.Get(len(vals) * 4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[i*4:], v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	flagAt := len(dst)
	dst = append(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // encLen, patched below
	body := len(dst)
	if comp, err := AppendBDICompress32(dst, raw); err == nil && len(comp)-body < len(raw) {
		dst = comp
		dst[flagAt] = SectionBDI
	} else {
		dst = append(dst[:body], raw...)
	}
	encLen := len(dst) - body
	binary.LittleEndian.PutUint32(dst[flagAt+1:], uint32(encLen))
	c.countEnc(len(raw), encLen)
	mem.Bytes.Put(raw)
	return dst
}

// ReadU32sInto parses a u32-vector section, appending the values to dst —
// the scratch-reuse form of ReadU32s.
func (c *VecCodec) ReadU32sInto(dst []uint32, src []byte) ([]uint32, []byte, error) {
	if len(src) < sectionHeaderSize {
		return nil, nil, fmt.Errorf("%w: truncated section header", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint32(src)
	flags := src[4]
	encLen := binary.LittleEndian.Uint32(src[5:])
	body := src[sectionHeaderSize:]
	if uint64(len(body)) < uint64(encLen) {
		return nil, nil, fmt.Errorf("%w: section payload %d bytes, header says %d", ErrCorrupt, len(body), encLen)
	}
	payload, rest := body[:encLen], body[encLen:]
	if flags&SectionBDI != 0 {
		dec, err := BDIDecompress32(payload)
		if err != nil {
			return nil, nil, err
		}
		c.countDec(len(payload), len(dec))
		payload = dec
	} else {
		c.countDec(len(payload), len(payload))
	}
	if uint64(len(payload)) != uint64(count)*4 {
		return nil, nil, fmt.Errorf("%w: u32 section of %d bytes for %d values", ErrCorrupt, len(payload), count)
	}
	for i := 0; i < int(count); i++ {
		dst = append(dst, binary.LittleEndian.Uint32(payload[i*4:]))
	}
	return dst, rest, nil
}

// ReadU32s parses a u32-vector section.
func (c *VecCodec) ReadU32s(src []byte) ([]uint32, []byte, error) {
	n, _ := SectionCount(src)
	vals, rest, err := c.ReadU32sInto(make([]uint32, 0, n), src)
	if err != nil {
		return nil, nil, err
	}
	return vals, rest, nil
}

// AppendBytes appends a raw-byte section (attribute payloads). tryBDI
// attempts data compression; high-entropy float payloads usually stay raw
// under the only-if-smaller policy, structured ones shrink.
func (c *VecCodec) AppendBytes(dst, payload []byte, tryBDI bool) []byte {
	return c.appendSection(dst, uint32(len(payload)), payload, tryBDI)
}

// ReadBytes parses a raw-byte section. The returned slice may alias src
// when the section was stored uncompressed.
func (c *VecCodec) ReadBytes(src []byte) ([]byte, []byte, error) {
	payload, count, rest, err := c.readSection(src)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(payload)) != uint64(count) {
		return nil, nil, fmt.Errorf("%w: byte section of %d bytes, header says %d", ErrCorrupt, len(payload), count)
	}
	return payload, rest, nil
}
