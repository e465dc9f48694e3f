package mof

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func TestVecCodecU64RoundTrip(t *testing.T) {
	var c VecCodec
	// Clustered IDs: the BDI sweet spot — should compress.
	ids := make([]uint64, 300)
	for i := range ids {
		ids[i] = 1_000_000 + uint64(i)*7
	}
	buf := c.AppendU64s(nil, ids)
	if len(buf) >= len(ids)*8 {
		t.Fatalf("clustered u64 section not compressed: %d bytes for %d raw", len(buf), len(ids)*8)
	}
	got, rest, err := c.ReadU64s(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	if len(got) != len(ids) {
		t.Fatalf("got %d values, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("value %d: got %d want %d", i, got[i], ids[i])
		}
	}
	if r := c.Ratio(); r >= 1 {
		t.Fatalf("ratio %v, want < 1 on compressible stream", r)
	}
}

func TestVecCodecU64Empty(t *testing.T) {
	var c VecCodec
	buf := c.AppendU64s(nil, nil)
	got, rest, err := c.ReadU64s(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || len(rest) != 0 {
		t.Fatalf("empty round-trip: %d values, %d rest", len(got), len(rest))
	}
}

func TestVecCodecU32RoundTrip(t *testing.T) {
	var c VecCodec
	degs := make([]uint32, 257)
	for i := range degs {
		degs[i] = 10 + uint32(i%3)
	}
	buf := c.AppendU32s(nil, degs)
	got, rest, err := c.ReadU32s(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	if len(got) != len(degs) {
		t.Fatalf("got %d values, want %d", len(got), len(degs))
	}
	for i := range degs {
		if got[i] != degs[i] {
			t.Fatalf("value %d: got %d want %d", i, got[i], degs[i])
		}
	}
}

func TestVecCodecBytesIncompressibleStaysRaw(t *testing.T) {
	var c VecCodec
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 4096)
	rng.Read(payload)
	buf := c.AppendBytes(nil, payload, true)
	if len(buf) != sectionHeaderSize+len(payload) {
		t.Fatalf("random payload should ship raw: %d bytes for %d raw", len(buf), len(payload))
	}
	got, rest, err := c.ReadBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
	if r := c.Ratio(); r != 1 {
		t.Fatalf("ratio %v on uncompressible payload, want 1", r)
	}
}

func TestVecCodecSequentialSections(t *testing.T) {
	var c VecCodec
	ids := []uint64{5, 6, 7, 8}
	degs := []uint32{2, 2, 3, 1}
	blob := []byte("attr-bytes")
	buf := c.AppendU64s(nil, ids)
	buf = c.AppendU32s(buf, degs)
	buf = c.AppendBytes(buf, blob, false)

	gotIDs, rest, err := c.ReadU64s(buf)
	if err != nil {
		t.Fatal(err)
	}
	gotDegs, rest, err := c.ReadU32s(rest)
	if err != nil {
		t.Fatal(err)
	}
	gotBlob, rest, err := c.ReadBytes(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	if len(gotIDs) != len(ids) || len(gotDegs) != len(degs) || string(gotBlob) != string(blob) {
		t.Fatalf("sections round-trip mismatch: %v %v %q", gotIDs, gotDegs, gotBlob)
	}
}

func TestVecCodecHostileSections(t *testing.T) {
	var c VecCodec
	good := c.AppendU64s(nil, []uint64{1, 2, 3})
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:sectionHeaderSize-1],
		"truncated": good[:len(good)-1],
	}
	// Count lies about element total.
	lieCount := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(lieCount, 999)
	cases["count-mismatch"] = lieCount
	// ... and a count far past what the bytes could decode to must not be
	// handed to a decoder as a buffer size.
	binary.LittleEndian.PutUint32(lieCount, 0xFFFFFFF0)
	if n, ok := SectionCount(lieCount); !ok || int(n) > 8*len(lieCount) {
		t.Errorf("SectionCount = %d for a %d-byte section", n, len(lieCount))
	}
	if n, _ := SectionCount(good); n != 3 {
		t.Errorf("SectionCount = %d for a 3-value section", n)
	}
	// encLen claims more than is present.
	lieLen := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(lieLen[5:], uint32(len(good)))
	cases["enclen-overrun"] = lieLen
	// BDI flag on a payload whose tail-length byte overruns the body.
	garbage := binary.LittleEndian.AppendUint32(nil, 1)
	garbage = append(garbage, SectionBDI)
	garbage = binary.LittleEndian.AppendUint32(garbage, 1)
	garbage = append(garbage, 0xFF)
	cases["bogus-bdi"] = garbage

	for name, src := range cases {
		if _, _, err := c.ReadU64s(src); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if _, _, err := c.ReadU32s(src); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (u32): err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestVecCodecNilSafe(t *testing.T) {
	var c *VecCodec
	buf := c.AppendU64s(nil, []uint64{1, 2, 3})
	got, _, err := c.ReadU64s(buf)
	if err != nil || len(got) != 3 {
		t.Fatalf("nil codec round-trip: %v %v", got, err)
	}
	if r := c.Ratio(); r != 1 {
		t.Fatalf("nil ratio = %v", r)
	}
	if raw, enc := c.Bytes(); raw != 0 || enc != 0 {
		t.Fatalf("nil counters = %d/%d", raw, enc)
	}
}
