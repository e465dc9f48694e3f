// Package mof implements the paper's customized Memory-over-Fabric protocol
// (Section 4.3): multi-request packing (Tech-1), Base-Delta-Immediate
// compression of data and addresses (Tech-2), a GEN-Z-style baseline codec
// for comparison (Tables 5 and 6), and a reliable go-back-N transport for
// carrying frames over lossy fabrics.
package mof

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// BDI (Base-Delta-Immediate) compression processes the input as 128-byte
// lines of 64-bit words. Each line stores one 8-byte base and per-word
// deltas in the narrowest width (1, 2, 4 or 8 bytes) that fits — the
// line-granular scheme of Pekhimenko et al. that the paper applies to both
// response data and request address vectors.
//
// Encoded layout:
//
//	byte 0        tail length (input bytes beyond the last full word)
//	per line:     width byte (1/2/4/8), base (8 B), then one delta per
//	              word at the declared width (signed, relative to base)
//	trailing      raw tail bytes
var ErrCorrupt = errors.New("mof: corrupt BDI payload")

const (
	bdiLineWords = 16 // 128-byte lines
)

var le = binary.LittleEndian

// bdiWidths maps the bit length of a line's OR-ed delta magnitudes to its
// delta width in bytes. A signed delta d fits k bytes iff its magnitude
// d ^ d>>63 is below 2^(8k-1), and OR-ing the magnitudes keeps the top bit
// of the largest, so one table lookup picks the width with no branch per
// word.
var bdiWidths = func() (t [65]byte) {
	for n := range t {
		switch {
		case n <= 7:
			t[n] = 1
		case n <= 15:
			t[n] = 2
		case n <= 31:
			t[n] = 4
		default:
			t[n] = 8
		}
	}
	return t
}()

// appendLine is the one BDI line encoder: it appends line (1..16 words) as
// a width byte, the first word as base, then every word's delta from the
// base at the narrowest width that holds them all, one loop per width.
func appendLine[W ~uint64](dst []byte, line []W) []byte {
	base := uint64(line[0])
	var mag uint64
	for _, v := range line {
		d := int64(uint64(v) - base)
		mag |= uint64(d ^ d>>63)
	}
	w := int(bdiWidths[bits.Len64(mag)])
	at := len(dst)
	dst = slices.Grow(dst, 9+len(line)*w)[:at+9+len(line)*w]
	dst[at] = byte(w)
	le.PutUint64(dst[at+1:], base)
	out := dst[at+9:]
	switch w {
	case 1:
		for i, v := range line {
			out[i] = byte(uint64(v) - base)
		}
	case 2:
		for i, v := range line {
			le.PutUint16(out[i*2:], uint16(uint64(v)-base))
		}
	case 4:
		for i, v := range line {
			le.PutUint32(out[i*4:], uint32(uint64(v)-base))
		}
	default:
		for i, v := range line {
			le.PutUint64(out[i*8:], uint64(v)-base)
		}
	}
	return dst
}

// decodeLine is the one BDI line decoder: it writes base plus each
// sign-extended width-w delta into dst, one value per element, narrowing
// to W.
func decodeLine[W ~uint32 | ~uint64](dst []W, w int, base uint64, deltas []byte) {
	deltas = deltas[:len(dst)*w]
	switch w {
	case 1:
		for i := range dst {
			dst[i] = W(base + uint64(int8(deltas[i])))
		}
	case 2:
		for i := range dst {
			dst[i] = W(base + uint64(int16(le.Uint16(deltas[i*2:]))))
		}
	case 4:
		for i := range dst {
			dst[i] = W(base + uint64(int32(le.Uint32(deltas[i*4:]))))
		}
	default:
		for i := range dst {
			dst[i] = W(base + le.Uint64(deltas[i*8:]))
		}
	}
}

// appendBDILanes encodes 32-bit lanes as a tail-free BDI payload, each lane
// sign-extended to 64 bits so small values take narrow widths.
func appendBDILanes(dst []byte, n int, lane func(i int) uint32) []byte {
	dst = append(dst, 0)
	var line [bdiLineWords]uint64
	for start := 0; start < n; start += bdiLineWords {
		l := line[:min(n-start, bdiLineWords)]
		for i := range l {
			l[i] = uint64(int64(int32(lane(start + i))))
		}
		dst = appendLine(dst, l)
	}
	return dst
}

// AppendBDICompress encodes src and appends the encoding to dst — the
// streaming form: a frame builder compresses straight into the frame it is
// assembling, with no intermediate encode buffer.
func AppendBDICompress(dst, src []byte) []byte {
	words := len(src) / 8
	dst = append(dst, byte(len(src)-words*8))
	var line [bdiLineWords]uint64
	for start := 0; start < words; start += bdiLineWords {
		l := line[:min(words-start, bdiLineWords)]
		for i := range l {
			l[i] = le.Uint64(src[(start+i)*8:])
		}
		dst = appendLine(dst, l)
	}
	return append(dst, src[words*8:]...)
}

// BDIBound returns the largest encoding AppendBDICompress can emit for n
// input bytes — the tail-length byte, a 9-byte header per line, every word
// at full width — so a frame builder can reserve room for a losing trial.
func BDIBound(n int) int {
	return 1 + (n/8+bdiLineWords-1)/bdiLineWords*9 + n
}

// BDICompress encodes src. The output decodes back exactly; it is only
// smaller when the data has base-delta structure (clustered values).
func BDICompress(src []byte) []byte {
	return AppendBDICompress(make([]byte, 0, BDIBound(len(src))), src)
}

// bdiScan validates an encoding without decoding it: the tail-length byte,
// then every line header and line length. It returns the lines, the raw
// tail and the word count the lines decode to, so a decoder can size its
// output exactly and then write it in one pass.
func bdiScan(enc []byte) (lines, tail []byte, words int, err error) {
	if len(enc) < 1 {
		return nil, nil, 0, ErrCorrupt
	}
	tailLen := int(enc[0])
	body := enc[1:]
	if len(body) < tailLen {
		return nil, nil, 0, fmt.Errorf("%w: tail %d beyond body %d", ErrCorrupt, tailLen, len(body))
	}
	lines, tail = body[:len(body)-tailLen], body[len(body)-tailLen:]
	for body = lines; len(body) > 0; {
		if len(body) < 9 {
			return nil, nil, 0, fmt.Errorf("%w: truncated line header", ErrCorrupt)
		}
		w := int(body[0])
		switch w {
		case 1, 2, 4, 8:
		default:
			return nil, nil, 0, fmt.Errorf("%w: delta width %d", ErrCorrupt, w)
		}
		body = body[9:]
		n := bdiLineWords
		if len(body) < n*w {
			if len(body)%w != 0 {
				return nil, nil, 0, fmt.Errorf("%w: ragged line of %d bytes at width %d", ErrCorrupt, len(body), w)
			}
			n = len(body) / w
			if n == 0 {
				return nil, nil, 0, fmt.Errorf("%w: empty line", ErrCorrupt)
			}
		}
		words += n
		body = body[n*w:]
	}
	return lines, tail, words, nil
}

// decodeLines writes the words of lines (already validated by bdiScan)
// into dst, which holds exactly that many.
func decodeLines[W ~uint32 | ~uint64](dst []W, lines []byte) {
	for len(lines) > 0 {
		w := int(lines[0])
		base := le.Uint64(lines[1:])
		lines = lines[9:]
		n := min(bdiLineWords, len(lines)/w)
		decodeLine(dst[:n], w, base, lines)
		dst, lines = dst[n:], lines[n*w:]
	}
}

// BDIDecompress reverses BDICompress. The original word count is implied by
// the encoding; the caller's framing bounds the input. The output is a
// single exact-size allocation.
func BDIDecompress(enc []byte) ([]byte, error) {
	lines, tail, words, err := bdiScan(enc)
	if err != nil {
		return nil, err
	}
	out := make([]byte, words*8, words*8+len(tail))
	var line [bdiLineWords]uint64
	for at := 0; len(lines) > 0; {
		w := int(lines[0])
		base := le.Uint64(lines[1:])
		lines = lines[9:]
		l := line[:min(bdiLineWords, len(lines)/w)]
		decodeLine(l, w, base, lines)
		for _, v := range l {
			le.PutUint64(out[at:], v)
			at += 8
		}
		lines = lines[len(l)*w:]
	}
	return append(out, tail...), nil
}

// AppendBDICompress32 compresses a vector of 32-bit lanes (e.g. address
// deltas), appending the encoding to dst. Each lane is sign-extended to 64
// bits, so small per-lane values map to narrow BDI widths. Input length
// must be a multiple of 4.
func AppendBDICompress32(dst, src []byte) ([]byte, error) {
	if len(src)%4 != 0 {
		return nil, fmt.Errorf("mof: 32-bit lane input of %d bytes", len(src))
	}
	return appendBDILanes(dst, len(src)/4, func(i int) uint32 { return le.Uint32(src[i*4:]) }), nil
}

// BDICompress32 compresses a vector of 32-bit lanes into a fresh buffer.
func BDICompress32(src []byte) ([]byte, error) {
	return AppendBDICompress32(make([]byte, 0, len(src)/2+16), src)
}

// bdiLanes validates a 32-bit-lane encoding and returns its lines, tail and
// lane count: every decoded 64-bit word, the tail's included, is one lane.
func bdiLanes(enc []byte) (lines, tail []byte, lanes int, err error) {
	lines, tail, words, err := bdiScan(enc)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(tail)%8 != 0 {
		return nil, nil, 0, fmt.Errorf("%w: widened payload of %d bytes", ErrCorrupt, words*8+len(tail))
	}
	return lines, tail, words + len(tail)/8, nil
}

// decodeLanes writes the lanes of a bdiLanes-validated encoding into dst:
// the lines' words, then the tail's, each narrowed to 32 bits.
func decodeLanes(dst []uint32, lines, tail []byte) {
	words := len(dst) - len(tail)/8
	decodeLines(dst[:words], lines)
	for i := range dst[words:] {
		dst[words+i] = uint32(le.Uint64(tail[i*8:]))
	}
}

// BDIDecompress32 reverses BDICompress32.
func BDIDecompress32(enc []byte) ([]byte, error) {
	lines, tail, lanes, err := bdiLanes(enc)
	if err != nil {
		return nil, err
	}
	vals := make([]uint32, lanes)
	decodeLanes(vals, lines, tail)
	out := make([]byte, lanes*4)
	for i, v := range vals {
		le.PutUint32(out[i*4:], v)
	}
	return out, nil
}

// CompressionRatio returns len(compressed)/len(original); values below 1
// indicate savings.
func CompressionRatio(original, compressed int) float64 {
	if original == 0 {
		return 1
	}
	return float64(compressed) / float64(original)
}
