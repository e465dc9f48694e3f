package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/mof"
	"lsdgnn/internal/stats"
)

// MoF on the wire. OpPacked is the one data frame: a count of sub-requests
// to the same shard, each a GetNeighbors or GetAttrs over a vector of node
// IDs. The multi-request amortisation of §4.3 Tech-1 happens upstream, in
// sampler.KHop, which hands the client one per-partition vector per hop for
// the whole batch; the client sends every fetch as a one-sub frame the
// moment it is asked for, and the format stays multi-sub for peers that
// batch on their own. ID and degree vectors travel as mof.VecCodec
// sections, BDI-compressed when smaller (Tech-2) and the header's BDI bit
// asks for it; attribute payloads ship raw, written in place.
//
// Frame bodies behind the header (protocol.go), little-endian:
//
//	request:   count u16 | count × (len u32 | sub)
//	response:  count u16 | count × (len u32 | status u8 | body)
//
// Sub-request bodies:
//
//	neighbors: OpGetNeighbors | idSection
//	attrs:     OpGetAttrs | idSection
//
// Sub-response bodies (status statusOK):
//
//	neighbors: OpGetNeighbors | degreeSection(u32) | flatIDSection(u64)
//	attrs:     OpGetAttrs | attrLen u32 | byteSection(float32 LE, raw)
//
// A non-OK status carries the error text; statusReject marks a *ServerError
// (deterministic rejection — not retryable, not a breaker strike), the same
// split the TCP status byte draws for whole frames.

// OpPacked is the packed-frame op code.
const OpPacked = 0x20

// Sub-op codes inside an OpPacked frame. They are not frame ops: a frame
// that leads with one is rejected as an unknown op.
const (
	OpGetNeighbors = 0x01
	OpGetAttrs     = 0x02
)

// MaxPackedRequests caps sub-requests per packed frame, the paper's
// 64-deep packing window.
const MaxPackedRequests = 64

// PackedSubRequest is one logical request inside a packed frame.
type PackedSubRequest struct {
	Op        byte // OpGetNeighbors or OpGetAttrs
	Neighbors NeighborsRequest
	Attrs     AttrsRequest
}

// PackedSubResponse is one logical response inside a packed frame; Err
// carries a per-sub failure (a *ServerError when the shard rejected the
// sub-request) while its siblings still succeed.
type PackedSubResponse struct {
	Op        byte
	Neighbors NeighborsResponse
	Attrs     AttrsResponse
	Err       error
}

// appendIDSection emits ids as a codec section, through BDI when asked.
// Value serialization runs through pooled scratch, not per-call staging.
func appendIDSection(dst []byte, ids []graph.NodeID, bdi bool, c *mof.VecCodec) []byte {
	if bdi {
		vals := mem.U64s.Get(len(ids))
		for i, v := range ids {
			vals[i] = uint64(v)
		}
		dst = c.AppendU64s(dst, vals)
		mem.U64s.Put(vals)
		return dst
	}
	raw := mem.Bytes.Get(len(ids) * 8)
	for i, v := range ids {
		binary.LittleEndian.PutUint64(raw[i*8:], uint64(v))
	}
	dst = c.AppendBytes(dst, raw, false)
	mem.Bytes.Put(raw)
	return dst
}

// readIDSection decodes an ID section into a fresh exact-size slice the
// caller owns; decode staging stays in pooled scratch.
func readIDSection(src []byte, bdi bool, c *mof.VecCodec) ([]graph.NodeID, []byte, error) {
	if bdi {
		n, _ := mof.SectionCount(src)
		scratch := mem.U64s.Get(int(n))
		vals, rest, err := c.ReadU64sInto(scratch[:0], src)
		if err != nil {
			mem.U64s.Put(scratch)
			return nil, nil, err
		}
		ids := make([]graph.NodeID, len(vals))
		for i, v := range vals {
			ids[i] = graph.NodeID(v)
		}
		mem.U64s.Put(scratch)
		return ids, rest, nil
	}
	raw, rest, err := c.ReadBytes(src)
	if err != nil {
		return nil, nil, err
	}
	if len(raw)%8 != 0 {
		return nil, nil, fmt.Errorf("cluster: ragged ID section of %d bytes", len(raw))
	}
	ids := make([]graph.NodeID, len(raw)/8)
	for i := range ids {
		ids[i] = graph.NodeID(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return ids, rest, nil
}

// EncodePackedRequest serializes subs into one OpPacked frame with no
// optional header field. bdi asks the codec to BDI-compress ID sections
// (still only when smaller).
func EncodePackedRequest(subs []PackedSubRequest, bdi bool, c *mof.VecCodec) ([]byte, error) {
	return encodePackedRequest(Header{BDI: bdi}, subs, c)
}

// encodePackedRequest is EncodePackedRequest under a caller-chosen header.
// Sub bodies are appended directly into the frame behind a patched length
// prefix, and the frame is a pooled buffer sized up front — room for each
// ID section's BDI trial included — that the caller owns and may recycle
// (mem.Bytes).
func encodePackedRequest(h Header, subs []PackedSubRequest, c *mof.VecCodec) ([]byte, error) {
	if len(subs) == 0 || len(subs) > MaxPackedRequests {
		return nil, fmt.Errorf("cluster: %d sub-requests in packed frame (1..%d)", len(subs), MaxPackedRequests)
	}
	h.Op = OpPacked
	est := 13 + len(h.Key) // header at its largest, then the count
	for _, sub := range subs {
		est += 4 + 1 + 9 + mof.BDIBound((len(sub.Neighbors.IDs)+len(sub.Attrs.IDs))*8)
	}
	out := AppendHeader(mem.Bytes.GetOwned(est, false)[:0], h)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(subs)))
	for _, sub := range subs {
		lenAt := len(out)
		out = append(out, 0, 0, 0, 0) // body length, patched below
		switch sub.Op {
		case OpGetNeighbors:
			out = append(out, OpGetNeighbors)
			out = appendIDSection(out, sub.Neighbors.IDs, h.BDI, c)
		case OpGetAttrs:
			out = append(out, OpGetAttrs)
			out = appendIDSection(out, sub.Attrs.IDs, h.BDI, c)
		default:
			mem.Bytes.Recycle(out)
			return nil, fmt.Errorf("cluster: op %#x cannot be packed", sub.Op)
		}
		binary.LittleEndian.PutUint32(out[lenAt:], uint32(len(out)-lenAt-4))
	}
	return out, nil
}

// splitPacked cuts a packed frame's body into per-sub slices.
func splitPacked(body []byte) ([][]byte, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("cluster: truncated packed frame")
	}
	n := int(binary.LittleEndian.Uint16(body))
	if n == 0 || n > MaxPackedRequests {
		return nil, fmt.Errorf("cluster: packed frame with %d subs (1..%d)", n, MaxPackedRequests)
	}
	rest := body[2:]
	subs := make([][]byte, n)
	for i := range subs {
		if len(rest) < 4 {
			return nil, fmt.Errorf("cluster: truncated packed frame at sub %d", i)
		}
		l := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(l) || l == 0 {
			return nil, fmt.Errorf("cluster: sub %d claims %d bytes, %d left", i, l, len(rest))
		}
		subs[i], rest = rest[:l], rest[l:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes in packed frame", len(rest))
	}
	return subs, nil
}

// DecodePackedRequest parses an OpPacked request body; bdi is the header's
// BDI bit.
func DecodePackedRequest(body []byte, bdi bool, c *mof.VecCodec) ([]PackedSubRequest, error) {
	bodies, err := splitPacked(body)
	if err != nil {
		return nil, err
	}
	subs := make([]PackedSubRequest, len(bodies))
	for i, body := range bodies {
		sub := &subs[i]
		sub.Op = body[0]
		if sub.Op != OpGetNeighbors && sub.Op != OpGetAttrs {
			return nil, fmt.Errorf("cluster: op %#x inside packed frame", sub.Op)
		}
		ids, rest, err := readIDSection(body[1:], bdi, c)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("cluster: %d trailing bytes in packed sub %d", len(rest), i)
		}
		if sub.Op == OpGetNeighbors {
			sub.Neighbors.IDs = ids
		} else {
			sub.Attrs.IDs = ids
		}
	}
	return subs, nil
}

// appendNeighbors appends an OK neighbors sub-response (status byte + body)
// for lists onto the frame. Degree vectors and flattened ID lists run
// through pooled scratch.
func appendNeighbors(out []byte, lists [][]graph.NodeID, bdi bool, c *mof.VecCodec) []byte {
	degs := mem.U32s.Get(len(lists))
	total := 0
	for i, l := range lists {
		degs[i] = uint32(len(l))
		total += len(l)
	}
	flat := mem.IDs.Get(total)
	flat = flat[:0]
	for _, l := range lists {
		flat = append(flat, l...)
	}
	// Room for both sections even if their BDI trials overshoot.
	out = append(grow(out, 2+2*9+mof.BDIBound(len(degs)*8)+mof.BDIBound(total*8)), statusOK, OpGetNeighbors)
	if bdi {
		out = c.AppendU32s(out, degs)
	} else {
		raw := mem.Bytes.Get(len(degs) * 4)
		for i, d := range degs {
			binary.LittleEndian.PutUint32(raw[i*4:], d)
		}
		out = c.AppendBytes(out, raw, false)
		mem.Bytes.Put(raw)
	}
	out = appendIDSection(out, flat, bdi, c)
	mem.IDs.Put(flat)
	mem.U32s.Put(degs)
	return out
}

// appendAttrsHead appends an OK attrs sub-response up to its payload: op,
// attrLen and a raw section header for size bytes (float sections never try
// BDI). It returns the frame extended over the payload, and the payload.
func appendAttrsHead(out []byte, attrLen, size int) ([]byte, []byte) {
	out = grow(out, 15+size)
	out = append(out, statusOK, OpGetAttrs)
	out = binary.LittleEndian.AppendUint32(out, uint32(attrLen))
	out = binary.LittleEndian.AppendUint32(out, uint32(size)) // section count: bytes
	out = append(out, 0)                                      // section flags: raw
	out = binary.LittleEndian.AppendUint32(out, uint32(size)) // section encLen
	at := len(out)
	return out[:at+size], out[at : at+size]
}

// grow returns frame with room for n more bytes, moving it into a larger
// pooled buffer when it has none.
func grow(frame []byte, n int) []byte {
	if cap(frame)-len(frame) >= n {
		return frame
	}
	bigger := append(mem.Bytes.GetOwned(max(2*cap(frame), len(frame)+n), false)[:0], frame...)
	mem.Bytes.Recycle(frame)
	return bigger
}

// hostLE reports whether the host lays a float32 out in the wire's byte
// order, so that a float section is the vector's own memory image.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatImage views fs as its memory image. The cast only ever runs this
// way: a float section sits at any offset in a frame, and viewing
// unaligned bytes as floats is invalid (checkptr faults on it).
func floatImage(fs []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(fs))), len(fs)*4)
}

// putFloats writes src into dst as little-endian float32s: one copy on a
// little-endian host.
func putFloats(dst []byte, src []float32) {
	if !hostLE {
		putFloatsLE(dst, src)
		return
	}
	copy(dst[:len(src)*4], floatImage(src))
}

// readFloats fills dst from little-endian float32s in src: one copy on a
// little-endian host.
func readFloats(dst []float32, src []byte) {
	if !hostLE {
		readFloatsLE(dst, src)
		return
	}
	copy(floatImage(dst), src[:len(dst)*4])
}

// putFloatsLE and readFloatsLE are the portable per-element codec, the
// only path on a big-endian host.
func putFloatsLE(dst []byte, src []float32) {
	for i, f := range src {
		binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(f))
	}
}

func readFloatsLE(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

// DecodePackedResponse parses an OpPacked response frame. server labels
// reconstructed *ServerError rejections, mirroring the TCP status-byte
// decode; an attrs Payload aliases frame unless it arrived BDI-compressed.
func DecodePackedResponse(frame []byte, server int, c *mof.VecCodec) ([]PackedSubResponse, error) {
	h, body, err := replyBody(frame, OpPacked)
	if err != nil {
		return nil, err
	}
	bodies, err := splitPacked(body)
	if err != nil {
		return nil, err
	}
	bdi := h.BDI
	subs := make([]PackedSubResponse, len(bodies))
	for i, body := range bodies {
		sub := &subs[i]
		switch body[0] {
		case statusReject:
			sub.Err = &ServerError{Server: server, Msg: string(body[1:])}
			continue
		case statusError:
			sub.Err = fmt.Errorf("cluster: server %d: %s", server, string(body[1:]))
			continue
		case statusOK:
		default:
			return nil, fmt.Errorf("cluster: packed sub %d with status %#x", i, body[0])
		}
		body = body[1:]
		if len(body) == 0 {
			return nil, fmt.Errorf("cluster: empty packed sub-response %d", i)
		}
		sub.Op = body[0]
		switch sub.Op {
		case OpGetNeighbors:
			// The degree vector is decode scratch — only the rebuilt lists
			// escape — so it lives in the pool.
			nd, _ := mof.SectionCount(body[1:])
			degScratch := mem.U32s.Get(int(nd))
			degs := degScratch[:0]
			var rest []byte
			if bdi {
				degs, rest, err = c.ReadU32sInto(degs, body[1:])
			} else {
				var raw []byte
				raw, rest, err = c.ReadBytes(body[1:])
				if err == nil {
					if len(raw)%4 != 0 {
						mem.U32s.Put(degScratch)
						return nil, fmt.Errorf("cluster: ragged degree section of %d bytes", len(raw))
					}
					for j := 0; j < len(raw)/4; j++ {
						degs = append(degs, binary.LittleEndian.Uint32(raw[j*4:]))
					}
				}
			}
			if err != nil {
				mem.U32s.Put(degScratch)
				return nil, err
			}
			flat, rest, err := readIDSection(rest, bdi, c)
			if err != nil {
				mem.U32s.Put(degScratch)
				return nil, err
			}
			if len(rest) != 0 {
				mem.U32s.Put(degScratch)
				return nil, fmt.Errorf("cluster: %d trailing bytes in packed sub-response %d", len(rest), i)
			}
			lists := make([][]graph.NodeID, len(degs))
			off := 0
			for j, d := range degs {
				if uint64(off)+uint64(d) > uint64(len(flat)) {
					mem.U32s.Put(degScratch)
					return nil, fmt.Errorf("cluster: degree vector overruns %d flat IDs", len(flat))
				}
				lists[j] = flat[off : off+int(d) : off+int(d)]
				off += int(d)
			}
			if off != len(flat) {
				mem.U32s.Put(degScratch)
				return nil, fmt.Errorf("cluster: %d flat IDs unclaimed by degree vector", len(flat)-off)
			}
			mem.U32s.Put(degScratch)
			sub.Neighbors.Lists = lists
		case OpGetAttrs:
			if len(body) < 5 {
				return nil, fmt.Errorf("cluster: truncated packed attrs sub-response %d", i)
			}
			sub.Attrs.AttrLen = int(binary.LittleEndian.Uint32(body[1:]))
			raw, rest, err := c.ReadBytes(body[5:])
			if err != nil {
				return nil, err
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("cluster: %d trailing bytes in packed sub-response %d", len(rest), i)
			}
			if len(raw)%4 != 0 {
				return nil, fmt.Errorf("cluster: ragged attr payload of %d bytes", len(raw))
			}
			sub.Attrs.Payload = raw
		default:
			return nil, fmt.Errorf("cluster: op %#x inside packed response", sub.Op)
		}
	}
	return subs, nil
}

// PackStats counts the client's side of the wire: frames sent (one per
// fetch), the bytes those fetches would take as bare uncompressed vectors
// against what actually crossed, BDI's achieved ratio, and the attribute
// fetches the in-call dedupe saved. Layer "cluster.pack".
type PackStats struct {
	frames   atomic.Int64
	rawReq   atomic.Int64 // bare-vector-equivalent request bytes
	wireReq  atomic.Int64 // request frame bytes
	rawResp  atomic.Int64 // bare-vector-equivalent response bytes
	wireResp atomic.Int64 // response frame bytes
	dedup    atomic.Int64 // duplicate attr IDs folded within one fetch
	// Codec is the section codec all frames on this client run through; its
	// counters yield the live compression ratio.
	Codec mof.VecCodec
}

// Snapshot-style accessors used by experiments and the benchmark harness.
// Requests equals Frames: every fetch is its own frame.
func (p *PackStats) Frames() int64   { return p.frames.Load() }
func (p *PackStats) Requests() int64 { return p.frames.Load() }
func (p *PackStats) RawBytes() int64 { return p.rawReq.Load() + p.rawResp.Load() }
func (p *PackStats) WireBytes() int64 {
	return p.wireReq.Load() + p.wireResp.Load()
}
func (p *PackStats) Dedup() int64 { return p.dedup.Load() }

// StatsSnapshot implements stats.Source under "cluster.pack".
func (p *PackStats) StatsSnapshot() stats.Snapshot {
	return stats.Snapshot{
		Layer: "cluster.pack",
		Metrics: []stats.Metric{
			{Name: "packed_frames", Value: float64(p.frames.Load()), Unit: "req"},
			{Name: "raw_bytes", Value: float64(p.RawBytes()), Unit: "bytes"},
			{Name: "wire_bytes", Value: float64(p.WireBytes()), Unit: "bytes"},
			{Name: "compression_ratio", Value: p.Codec.Ratio(), Unit: "ratio"},
			{Name: "attr_dedup_hits", Value: float64(p.dedup.Load()), Unit: "req"},
		},
	}
}

// rawRequestBytes is the size sub would take as a bare ID list — op, count,
// 8 bytes per ID behind a two-byte header: the raw side of the wire ratio.
func rawRequestBytes(sub PackedSubRequest) int {
	// A sub sets only its own op's ID list.
	return 6 + (len(sub.Neighbors.IDs)+len(sub.Attrs.IDs))*8
}

// rawResponseBytes is rawRequestBytes for a reply: bare counted lists or
// bare floats.
func rawResponseBytes(resp PackedSubResponse) int {
	if resp.Op == OpGetNeighbors {
		n := 6
		for _, l := range resp.Neighbors.Lists {
			n += 4 + len(l)*8
		}
		return n
	}
	return 10 + len(resp.Attrs.Payload)
}

// WireStats counts a server's wire-level traffic: every frame handled, the
// packed share, and the achieved BDI compression. Layer "cluster.wire".
type WireStats struct {
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	frames    atomic.Int64
	packed    atomic.Int64
	packedSub atomic.Int64
	// Codec codes this server's ID and degree sections (attribute sections
	// ship raw); its counters yield their live compression ratio.
	Codec mof.VecCodec
}

// recordFrame counts one handled frame's request/response bytes.
func (w *WireStats) recordFrame(in, out int) {
	if w == nil {
		return
	}
	w.frames.Add(1)
	w.bytesIn.Add(int64(in))
	w.bytesOut.Add(int64(out))
}

// recordPacked counts one packed frame carrying n sub-requests.
func (w *WireStats) recordPacked(n int) {
	if w == nil {
		return
	}
	w.packed.Add(1)
	w.packedSub.Add(int64(n))
}

// PackRatio returns average sub-requests per packed frame (1 when no
// packed frame has arrived).
func (w *WireStats) PackRatio() float64 {
	p := w.packed.Load()
	if p == 0 {
		return 1
	}
	return float64(w.packedSub.Load()) / float64(p)
}

// StatsSnapshot implements stats.Source under "cluster.wire".
func (w *WireStats) StatsSnapshot() stats.Snapshot {
	in, out := w.bytesIn.Load(), w.bytesOut.Load()
	return stats.Snapshot{
		Layer: "cluster.wire",
		Metrics: []stats.Metric{
			{Name: "bytes_total", Value: float64(in + out), Unit: "bytes"},
			{Name: "bytes_in", Value: float64(in), Unit: "bytes"},
			{Name: "bytes_out", Value: float64(out), Unit: "bytes"},
			{Name: "frames_total", Value: float64(w.frames.Load()), Unit: "req"},
			{Name: "packed_frames", Value: float64(w.packed.Load()), Unit: "req"},
			{Name: "packed_requests", Value: float64(w.packedSub.Load()), Unit: "req"},
			{Name: "pack_ratio", Value: w.PackRatio(), Unit: "ratio"},
			{Name: "compression_ratio", Value: w.Codec.Ratio(), Unit: "ratio"},
		},
	}
}
