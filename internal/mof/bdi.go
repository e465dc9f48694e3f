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

	"lsdgnn/internal/mem"
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

func widthFor(deltas []uint64) int {
	width := 1
	for _, d := range deltas {
		s := int64(d)
		switch {
		case s >= -(1<<7) && s < 1<<7:
		case s >= -(1<<15) && s < 1<<15:
			if width < 2 {
				width = 2
			}
		case s >= -(1<<31) && s < 1<<31:
			if width < 4 {
				width = 4
			}
		default:
			return 8
		}
	}
	return width
}

// AppendBDICompress encodes src and appends the encoding to dst — the
// streaming form: a frame builder compresses straight into the frame it is
// assembling, with no intermediate encode buffer.
func AppendBDICompress(dst, src []byte) []byte {
	words := len(src) / 8
	tail := src[words*8:]
	dst = append(dst, byte(len(tail)))
	var deltas [bdiLineWords]uint64
	for start := 0; start < words; start += bdiLineWords {
		n := words - start
		if n > bdiLineWords {
			n = bdiLineWords
		}
		base := binary.LittleEndian.Uint64(src[start*8:])
		for i := 0; i < n; i++ {
			deltas[i] = binary.LittleEndian.Uint64(src[(start+i)*8:]) - base
		}
		w := widthFor(deltas[:n])
		dst = append(dst, byte(w))
		dst = binary.LittleEndian.AppendUint64(dst, base)
		for i := 0; i < n; i++ {
			switch w {
			case 1:
				dst = append(dst, byte(deltas[i]))
			case 2:
				dst = binary.LittleEndian.AppendUint16(dst, uint16(deltas[i]))
			case 4:
				dst = binary.LittleEndian.AppendUint32(dst, uint32(deltas[i]))
			default:
				dst = binary.LittleEndian.AppendUint64(dst, deltas[i])
			}
		}
	}
	return append(dst, tail...)
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

// bdiScanLines walks the encoded line headers of body (tail already
// stripped), returning the decoded word count so the decoder can size its
// output exactly instead of growing it by appends.
func bdiScanLines(body []byte) (int, error) {
	words := 0
	for len(body) > 0 {
		if len(body) < 9 {
			return 0, fmt.Errorf("%w: truncated line header", ErrCorrupt)
		}
		w := int(body[0])
		switch w {
		case 1, 2, 4, 8:
		default:
			return 0, fmt.Errorf("%w: delta width %d", ErrCorrupt, w)
		}
		body = body[9:]
		n := bdiLineWords
		if len(body) < n*w {
			if len(body)%w != 0 {
				return 0, fmt.Errorf("%w: ragged line of %d bytes at width %d", ErrCorrupt, len(body), w)
			}
			n = len(body) / w
			if n == 0 {
				return 0, fmt.Errorf("%w: empty line", ErrCorrupt)
			}
		}
		words += n
		body = body[n*w:]
	}
	return words, nil
}

// BDIDecompress reverses BDICompress. The original word count is implied by
// the encoding; the caller's framing bounds the input. The output is a
// single exact-size allocation.
func BDIDecompress(enc []byte) ([]byte, error) {
	if len(enc) < 1 {
		return nil, ErrCorrupt
	}
	tailLen := int(enc[0])
	body := enc[1:]
	if len(body) < tailLen {
		return nil, fmt.Errorf("%w: tail %d beyond body %d", ErrCorrupt, tailLen, len(body))
	}
	tail := body[len(body)-tailLen:]
	body = body[:len(body)-tailLen]
	words, err := bdiScanLines(body)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, words*8+len(tail))
	for len(body) > 0 {
		w := int(body[0])
		base := binary.LittleEndian.Uint64(body[1:])
		body = body[9:]
		n := bdiLineWords
		if len(body) < n*w {
			n = len(body) / w
		}
		for i := 0; i < n; i++ {
			var d uint64
			switch w {
			case 1:
				d = uint64(int64(int8(body[i])))
			case 2:
				d = uint64(int64(int16(binary.LittleEndian.Uint16(body[i*2:]))))
			case 4:
				d = uint64(int64(int32(binary.LittleEndian.Uint32(body[i*4:]))))
			default:
				d = binary.LittleEndian.Uint64(body[i*8:])
			}
			out = binary.LittleEndian.AppendUint64(out, base+d)
		}
		body = body[n*w:]
	}
	return append(out, tail...), nil
}

// AppendBDICompress32 compresses a vector of 32-bit lanes (e.g. address
// deltas), appending the encoding to dst. Each lane is sign-extended to 64
// bits first — through pooled scratch, not a per-call staging buffer — so
// small per-lane values map to narrow BDI widths. Input length must be a
// multiple of 4.
func AppendBDICompress32(dst, src []byte) ([]byte, error) {
	if len(src)%4 != 0 {
		return nil, fmt.Errorf("mof: 32-bit lane input of %d bytes", len(src))
	}
	wide := mem.Bytes.Get(len(src) * 2)
	for i := 0; i < len(src); i += 4 {
		v := int64(int32(binary.LittleEndian.Uint32(src[i:])))
		binary.LittleEndian.PutUint64(wide[i*2:], uint64(v))
	}
	dst = AppendBDICompress(dst, wide)
	mem.Bytes.Put(wide)
	return dst, nil
}

// BDICompress32 compresses a vector of 32-bit lanes into a fresh buffer.
func BDICompress32(src []byte) ([]byte, error) {
	return AppendBDICompress32(make([]byte, 0, len(src)/2+16), src)
}

// BDIDecompress32 reverses BDICompress32.
func BDIDecompress32(enc []byte) ([]byte, error) {
	wide, err := BDIDecompress(enc)
	if err != nil {
		return nil, err
	}
	if len(wide)%8 != 0 {
		return nil, fmt.Errorf("%w: widened payload of %d bytes", ErrCorrupt, len(wide))
	}
	out := make([]byte, 0, len(wide)/2)
	for i := 0; i < len(wide); i += 8 {
		out = binary.LittleEndian.AppendUint32(out, uint32(binary.LittleEndian.Uint64(wide[i:])))
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
