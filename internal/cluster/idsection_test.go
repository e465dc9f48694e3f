package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mof"
)

// FuzzIDSection holds the section codec to the word-at-a-time coder it
// replaced, kept below as a reference: ID sections (BDI and raw) and
// degree sections must encode to identical bytes, and arbitrary input must
// decode to the same verdict, the same values and the same remainder.
func FuzzIDSection(f *testing.F) {
	var c mof.VecCodec
	good := appendIDSection(nil, []graph.NodeID{1 << 40, 1<<40 + 3, 1<<40 - 200, 7}, true, &c)
	f.Add(good)
	f.Add(appendIDSection(nil, []graph.NodeID{5, 6}, false, &c))
	f.Add(c.AppendU32s(nil, []uint32{3, 0, 1 << 20, 7}))
	f.Add([]byte{})
	f.Add([]byte{16, 0, 0, 0, mof.SectionBDI, 10, 0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9})            // words from the BDI tail alone
	f.Add([]byte{1, 0, 0, 0, mof.SectionBDI, 11, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0x7f}) // one width-2 word
	f.Add([]byte{2, 0, 0, 0, 2, 8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9})                              // unknown flag bits read raw
	f.Fuzz(func(t *testing.T, data []byte) {
		// Four 128-byte lines and a tail cover every line shape; longer
		// inputs only slow the minimizer down.
		if len(data) > 600 {
			return
		}
		// Encode: the same IDs through both coders, as words straight from
		// the input and as walks of 1-, 2- and 4-byte steps, so every delta
		// width and the raw fallback come up.
		for _, ids := range fuzzIDs(data) {
			for _, bdi := range []bool{true, false} {
				got := appendIDSection(nil, ids, bdi, &c)
				want := refAppendIDSection(nil, ids, bdi)
				if !bytes.Equal(got, want) {
					t.Fatalf("bdi=%v ids %v: encoded %x, reference %x", bdi, ids, got, want)
				}
				back, rest, err := readIDSection(nil, got, bdi, &c)
				if err != nil || len(rest) != 0 || !slices.Equal(back, ids) {
					t.Fatalf("bdi=%v: %v round-tripped to %v (rest %d, %v)", bdi, ids, back, len(rest), err)
				}
			}
			degs := make([]uint32, len(ids))
			for i, v := range ids {
				degs[i] = uint32(v)
			}
			if got, want := c.AppendU32s(nil, degs), refAppendU32s(nil, degs); !bytes.Equal(got, want) {
				t.Fatalf("degrees %v: encoded %x, reference %x", degs, got, want)
			}
		}
		// Decode: arbitrary bytes, every section kind.
		for _, bdi := range []bool{true, false} {
			got, rest, err := readIDSection(nil, data, bdi, &c)
			want, wantRest, wantErr := refReadIDSection(data, bdi)
			if (err == nil) != (wantErr == nil) || !slices.Equal(got, want) || len(rest) != len(wantRest) {
				t.Fatalf("bdi=%v %x: decoded %v rest %d (%v), reference %v rest %d (%v)",
					bdi, data, got, len(rest), err, want, len(wantRest), wantErr)
			}
			// Into scratch, as a server decodes: appended behind what the
			// scratch already holds.
			scratch := append(make([]graph.NodeID, 0, 1+idSectionLen(data, bdi)), 42)
			if into, _, err := readIDSection(scratch, data, bdi, &c); err == nil && (into[0] != 42 || !slices.Equal(into[1:], want)) {
				t.Fatalf("bdi=%v %x: decoded into scratch as %v, want 42 then %v", bdi, data, into, want)
			}
		}
		got, rest, err := c.ReadU32sInto(nil, data)
		want, wantRest, wantErr := refReadU32s(data)
		if (err == nil) != (wantErr == nil) || !slices.Equal(got, want) || len(rest) != len(wantRest) {
			t.Fatalf("degrees %x: decoded %v rest %d (%v), reference %v rest %d (%v)",
				data, got, len(rest), err, want, len(wantRest), wantErr)
		}
	})
}

// fuzzIDs derives ID vectors from fuzz input: its little-endian words, and
// walks stepping by its signed bytes, 16-bit pairs and 32-bit quads.
func fuzzIDs(data []byte) [][]graph.NodeID {
	le := binary.LittleEndian
	var words, walk8, walk16, walk32 []graph.NodeID
	for i := 0; i+8 <= len(data); i += 8 {
		words = append(words, graph.NodeID(le.Uint64(data[i:])))
	}
	at := graph.NodeID(1) << 50
	for _, b := range data {
		at += graph.NodeID(int64(int8(b)))
		walk8 = append(walk8, at)
	}
	for i := 0; i+2 <= len(data); i += 2 {
		at += graph.NodeID(int64(int16(le.Uint16(data[i:]))))
		walk16 = append(walk16, at)
	}
	for i := 0; i+4 <= len(data); i += 4 {
		at += graph.NodeID(int64(int32(le.Uint32(data[i:]))))
		walk32 = append(walk32, at)
	}
	return [][]graph.NodeID{words, walk8, walk16, walk32}
}

// The reference coder: the section codec as it stood before lines were
// coded in place, staged one word at a time through byte buffers.

var errRef = errors.New("reference: corrupt")

func refWidthFor(deltas []uint64) int {
	width := 1
	for _, d := range deltas {
		s := int64(d)
		switch {
		case s >= -(1<<7) && s < 1<<7:
		case s >= -(1<<15) && s < 1<<15:
			width = max(width, 2)
		case s >= -(1<<31) && s < 1<<31:
			width = max(width, 4)
		default:
			return 8
		}
	}
	return width
}

func refBDICompress(dst, src []byte) []byte {
	le := binary.LittleEndian
	words := len(src) / 8
	tail := src[words*8:]
	dst = append(dst, byte(len(tail)))
	var deltas [16]uint64
	for start := 0; start < words; start += 16 {
		n := min(words-start, 16)
		base := le.Uint64(src[start*8:])
		for i := 0; i < n; i++ {
			deltas[i] = le.Uint64(src[(start+i)*8:]) - base
		}
		w := refWidthFor(deltas[:n])
		dst = append(dst, byte(w))
		dst = le.AppendUint64(dst, base)
		for i := 0; i < n; i++ {
			switch w {
			case 1:
				dst = append(dst, byte(deltas[i]))
			case 2:
				dst = le.AppendUint16(dst, uint16(deltas[i]))
			case 4:
				dst = le.AppendUint32(dst, uint32(deltas[i]))
			default:
				dst = le.AppendUint64(dst, deltas[i])
			}
		}
	}
	return append(dst, tail...)
}

func refBDIDecompress(enc []byte) ([]byte, error) {
	le := binary.LittleEndian
	if len(enc) < 1 {
		return nil, errRef
	}
	tailLen := int(enc[0])
	body := enc[1:]
	if len(body) < tailLen {
		return nil, errRef
	}
	tail := body[len(body)-tailLen:]
	body = body[:len(body)-tailLen]
	var out []byte
	for len(body) > 0 {
		if len(body) < 9 {
			return nil, errRef
		}
		w := int(body[0])
		if w != 1 && w != 2 && w != 4 && w != 8 {
			return nil, errRef
		}
		base := le.Uint64(body[1:])
		body = body[9:]
		n := 16
		if len(body) < n*w {
			if len(body)%w != 0 || len(body) == 0 {
				return nil, errRef
			}
			n = len(body) / w
		}
		for i := 0; i < n; i++ {
			var d uint64
			switch w {
			case 1:
				d = uint64(int64(int8(body[i])))
			case 2:
				d = uint64(int64(int16(le.Uint16(body[i*2:]))))
			case 4:
				d = uint64(int64(int32(le.Uint32(body[i*4:]))))
			default:
				d = le.Uint64(body[i*8:])
			}
			out = le.AppendUint64(out, base+d)
		}
		body = body[n*w:]
	}
	return append(out, tail...), nil
}

func refAppendSection(dst []byte, count uint32, payload []byte, tryBDI bool) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, count)
	if tryBDI {
		if comp := refBDICompress(nil, payload); len(comp) < len(payload) {
			dst = append(dst, mof.SectionBDI)
			return append(le.AppendUint32(dst, uint32(len(comp))), comp...)
		}
	}
	dst = append(dst, 0)
	return append(le.AppendUint32(dst, uint32(len(payload))), payload...)
}

func refReadSection(src []byte) (payload []byte, count uint32, rest []byte, err error) {
	le := binary.LittleEndian
	if len(src) < 9 {
		return nil, 0, nil, errRef
	}
	count, flags, encLen := le.Uint32(src), src[4], le.Uint32(src[5:])
	body := src[9:]
	if uint64(len(body)) < uint64(encLen) {
		return nil, 0, nil, errRef
	}
	payload, rest = body[:encLen], body[encLen:]
	if flags&mof.SectionBDI != 0 {
		if payload, err = refBDIDecompress(payload); err != nil {
			return nil, 0, nil, err
		}
	}
	return payload, count, rest, nil
}

func refAppendIDSection(dst []byte, ids []graph.NodeID, bdi bool) []byte {
	raw := make([]byte, len(ids)*8)
	for i, v := range ids {
		binary.LittleEndian.PutUint64(raw[i*8:], uint64(v))
	}
	if bdi {
		return refAppendSection(dst, uint32(len(ids)), raw, true)
	}
	return refAppendSection(dst, uint32(len(raw)), raw, false)
}

func refReadIDSection(src []byte, bdi bool) ([]graph.NodeID, []byte, error) {
	payload, count, rest, err := refReadSection(src)
	if err != nil {
		return nil, nil, err
	}
	if bdi && uint64(len(payload)) != uint64(count)*8 || !bdi && (uint64(len(payload)) != uint64(count) || len(payload)%8 != 0) {
		return nil, nil, errRef
	}
	ids := make([]graph.NodeID, len(payload)/8)
	for i := range ids {
		ids[i] = graph.NodeID(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return ids, rest, nil
}

func refAppendU32s(dst []byte, vals []uint32) []byte {
	le := binary.LittleEndian
	raw := make([]byte, len(vals)*4)
	wide := make([]byte, len(vals)*8)
	for i, v := range vals {
		le.PutUint32(raw[i*4:], v)
		le.PutUint64(wide[i*8:], uint64(int64(int32(v))))
	}
	dst = le.AppendUint32(dst, uint32(len(vals)))
	if comp := refBDICompress(nil, wide); len(comp) < len(raw) {
		dst = append(dst, mof.SectionBDI)
		return append(le.AppendUint32(dst, uint32(len(comp))), comp...)
	}
	dst = append(dst, 0)
	return append(le.AppendUint32(dst, uint32(len(raw))), raw...)
}

func refReadU32s(src []byte) ([]uint32, []byte, error) {
	le := binary.LittleEndian
	if len(src) < 9 {
		return nil, nil, errRef
	}
	count, flags, encLen := le.Uint32(src), src[4], le.Uint32(src[5:])
	body := src[9:]
	if uint64(len(body)) < uint64(encLen) {
		return nil, nil, errRef
	}
	payload, rest := body[:encLen], body[encLen:]
	if flags&mof.SectionBDI != 0 {
		wide, err := refBDIDecompress(payload)
		if err != nil || len(wide)%8 != 0 {
			return nil, nil, errRef
		}
		payload = nil
		for i := 0; i < len(wide); i += 8 {
			payload = le.AppendUint32(payload, uint32(le.Uint64(wide[i:])))
		}
	}
	if uint64(len(payload)) != uint64(count)*4 {
		return nil, nil, errRef
	}
	vals := make([]uint32, count)
	for i := range vals {
		vals[i] = le.Uint32(payload[i*4:])
	}
	return vals, rest, nil
}
