package mof

import (
	"fmt"
	"slices"
	"sync/atomic"
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
	dst = le.AppendUint32(dst, count)
	flagAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0) // flags, encLen (patched below)
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
	le.PutUint32(dst[flagAt+1:], uint32(encLen))
	c.countEnc(len(payload), encLen)
	return dst
}

// sectionHead parses the header of the section at the head of src: its
// count and flags, its payload, and the bytes following it.
func sectionHead(src []byte) (count uint32, flags byte, payload, rest []byte, err error) {
	if len(src) < sectionHeaderSize {
		return 0, 0, nil, nil, fmt.Errorf("%w: truncated section header", ErrCorrupt)
	}
	count, flags = le.Uint32(src), src[4]
	encLen := le.Uint32(src[5:])
	body := src[sectionHeaderSize:]
	if uint64(len(body)) < uint64(encLen) {
		return 0, 0, nil, nil, fmt.Errorf("%w: section payload %d bytes, header says %d", ErrCorrupt, len(body), encLen)
	}
	return count, flags, body[:encLen], body[encLen:], nil
}

// readSection parses one section header and returns the decompressed
// payload, the declared count, and the bytes following the section.
func (c *VecCodec) readSection(src []byte) (payload []byte, count uint32, rest []byte, err error) {
	count, flags, payload, rest, err := sectionHead(src)
	if err != nil {
		return nil, 0, nil, err
	}
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
func (c *VecCodec) AppendU64s(dst []byte, vals []uint64) []byte { return AppendWords(c, dst, vals) }

// AppendWords is AppendU64s for any vector of 64-bit words, node IDs
// included, read in place: no staging copy on either outcome.
func AppendWords[W ~uint64](c *VecCodec, dst []byte, vals []W) []byte {
	return appendWords(c, dst, uint32(len(vals)), vals, true)
}

// AppendWordBytes appends vals' little-endian image as a raw byte section,
// the uncompressed form AppendBytes would give it, with no staging copy.
func AppendWordBytes[W ~uint64](c *VecCodec, dst []byte, vals []W) []byte {
	return appendWords(c, dst, uint32(len(vals)*8), vals, false)
}

// appendWords is appendSection for a vector of words: BDI lines are
// encoded straight from vals, a losing trial stops at the line that makes
// it lose, and the raw form is written from vals too.
func appendWords[W ~uint64](c *VecCodec, dst []byte, count uint32, vals []W, tryBDI bool) []byte {
	dst = le.AppendUint32(dst, count)
	flagAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0) // flags, encLen (patched below)
	body, raw := len(dst), len(vals)*8
	if tryBDI {
		dst = append(dst, 0) // BDI tail length: none
		for start := 0; start < len(vals) && len(dst)-body < raw; start += bdiLineWords {
			dst = appendLine(dst, vals[start:min(start+bdiLineWords, len(vals))])
		}
	}
	if tryBDI && len(dst)-body < raw {
		dst[flagAt] = SectionBDI
	} else {
		dst = slices.Grow(dst[:body], raw)[:body+raw]
		for i, v := range vals {
			le.PutUint64(dst[body+i*8:], uint64(v))
		}
	}
	encLen := len(dst) - body
	le.PutUint32(dst[flagAt+1:], uint32(encLen))
	c.countEnc(raw, encLen)
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
	n = le.Uint32(src)
	if most := uint64(len(src)-sectionHeaderSize) * 8; uint64(n) > most {
		n = uint32(most)
	}
	return n, true
}

// ReadU64sInto parses a u64-vector section, appending the values to dst —
// the scratch-reuse form of ReadU64s. The payload is validated first and
// then decoded straight into dst, grown once to fit.
func (c *VecCodec) ReadU64sInto(dst []uint64, src []byte) ([]uint64, []byte, error) {
	return ReadWordsInto(c, dst, src)
}

// ReadWordsInto is ReadU64sInto for any vector of 64-bit words: called
// with a nil dst it returns a fresh exact-size vector, node IDs included.
// Nothing is allocated before the section has proved it holds as many
// values as it claims.
func ReadWordsInto[W ~uint64](c *VecCodec, dst []W, src []byte) ([]W, []byte, error) {
	count, flags, payload, rest, err := sectionHead(src)
	if err != nil {
		return nil, nil, err
	}
	// A raw payload decodes like a BDI tail: whole little-endian words.
	lines, tail, words := []byte(nil), payload, 0
	if flags&SectionBDI != 0 {
		if lines, tail, words, err = bdiScan(payload); err != nil {
			return nil, nil, err
		}
	}
	c.countDec(len(payload), words*8+len(tail))
	if size := words*8 + len(tail); uint64(size) != uint64(count)*8 {
		return nil, nil, fmt.Errorf("%w: u64 section of %d bytes for %d values", ErrCorrupt, size, count)
	}
	at := len(dst)
	dst = slices.Grow(dst, int(count))[:at+int(count)]
	decodeLines(dst[at:at+words], lines)
	for i := range dst[at+words:] {
		dst[at+words+i] = W(le.Uint64(tail[i*8:]))
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
	dst = le.AppendUint32(dst, uint32(len(vals)))
	flagAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0) // flags, encLen (patched below)
	body, raw := len(dst), len(vals)*4
	if dst = appendBDILanes(dst, len(vals), func(i int) uint32 { return vals[i] }); len(dst)-body < raw {
		dst[flagAt] = SectionBDI
	} else {
		dst = slices.Grow(dst[:body], raw)[:body+raw]
		for i, v := range vals {
			le.PutUint32(dst[body+i*4:], v)
		}
	}
	encLen := len(dst) - body
	le.PutUint32(dst[flagAt+1:], uint32(encLen))
	c.countEnc(raw, encLen)
	return dst
}

// ReadU32sInto parses a u32-vector section, appending the values to dst —
// the scratch-reuse form of ReadU32s, decoded straight into dst.
func (c *VecCodec) ReadU32sInto(dst []uint32, src []byte) ([]uint32, []byte, error) {
	count, flags, payload, rest, err := sectionHead(src)
	if err != nil {
		return nil, nil, err
	}
	var lines, tail []byte
	size := len(payload)
	if flags&SectionBDI != 0 {
		var lanes int
		if lines, tail, lanes, err = bdiLanes(payload); err != nil {
			return nil, nil, err
		}
		size = lanes * 4
	}
	c.countDec(len(payload), size)
	if uint64(size) != uint64(count)*4 {
		return nil, nil, fmt.Errorf("%w: u32 section of %d bytes for %d values", ErrCorrupt, size, count)
	}
	at := len(dst)
	dst = slices.Grow(dst, int(count))[:at+int(count)]
	if flags&SectionBDI != 0 {
		decodeLanes(dst[at:], lines, tail)
	} else {
		for i := range dst[at:] {
			dst[at+i] = le.Uint32(payload[i*4:])
		}
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
