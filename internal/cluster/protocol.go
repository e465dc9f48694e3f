package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"lsdgnn/internal/graph"
)

// Batched RPC protocol between sampling workers and graph servers. The
// encoding is length-prefixed little-endian binary, shared by the in-process
// accounting transport and the TCP transport so that byte counts in the
// characterization match what really crosses the wire.
//
// Every frame, in either direction, starts with the same header:
//
//	request:  op u8 | hdr u8 | [trace-id u64] | [key-len u8 | key] | body
//	reply:    op u8 | hdr u8 | [server-ns u64] | body
//
// hdr carries the protocol version in its low nibble and one presence bit
// per optional field in its high nibble. Peers always ship from this tree,
// so versions are not negotiated: a frame whose version is not ProtoVersion
// is rejected by ParseHeader, on the server as a *ServerError (never
// retried, never a breaker strike) and on the client as a failed bootstrap.

// Op codes.
const (
	OpGetNeighbors = 0x01
	OpGetAttrs     = 0x02
	OpMeta         = 0x03
)

// ProtoVersion is this build's wire protocol version, carried in every
// frame header.
const ProtoVersion = 4

// hdr byte layout, and where the optional u64 sits in a frame that has one.
const (
	hdrVersionMask = 0x0f
	hdrBDI         = 1 << 4 // packed body sections are BDI-compressed
	hdrTrace       = 1 << 5 // a u64 follows: trace ID (request) or server ns (reply)
	hdrKey         = 1 << 6 // a length-prefixed tenant API key follows (requests)
	hdrReserved    = 1 << 7 // must be zero
	traceOffset    = 2
)

// Header is the one frame header. A frame with no optional field spends two
// bytes on it: the op and the hdr byte.
type Header struct {
	Op byte
	// BDI marks a packed frame whose sections went through BDI compression;
	// a server echoes the client's choice in its reply.
	BDI bool
	// Traced says Trace is on the wire. In a request Trace is the trace ID,
	// which joins the server's request context and logs; in a reply it is
	// the server's handling time in nanoseconds, which lets the client split
	// wire from server latency per hop.
	Traced bool
	Trace  uint64
	// Key is the sending tenant's API key, read by a gateway.WireGate in
	// front of the server; empty means absent. At most 255 bytes.
	Key string
}

// AppendHeader appends h's wire form to dst.
func AppendHeader(dst []byte, h Header) []byte {
	if len(h.Key) > 255 {
		panic("cluster: api key exceeds 255 bytes")
	}
	hdr := byte(ProtoVersion)
	if h.BDI {
		hdr |= hdrBDI
	}
	if h.Traced {
		hdr |= hdrTrace
	}
	if h.Key != "" {
		hdr |= hdrKey
	}
	dst = append(dst, h.Op, hdr)
	if h.Traced {
		dst = binary.LittleEndian.AppendUint64(dst, h.Trace)
	}
	if h.Key != "" {
		dst = append(dst, byte(len(h.Key)))
		dst = append(dst, h.Key...)
	}
	return dst
}

// ParseHeader splits a frame into its header and body. The body aliases
// frame. Frames arrive from untrusted peers: every length is checked, and a
// version or presence bit this build does not know is an error.
func ParseHeader(frame []byte) (Header, []byte, error) {
	if len(frame) < 2 {
		return Header{}, nil, fmt.Errorf("cluster: truncated frame header (%d bytes)", len(frame))
	}
	h, hdr, rest := Header{Op: frame[0]}, frame[1], frame[2:]
	if v := hdr & hdrVersionMask; v != ProtoVersion {
		return Header{}, nil, fmt.Errorf("cluster: peer speaks protocol v%d, this build speaks v%d", v, ProtoVersion)
	}
	if hdr&hdrReserved != 0 {
		return Header{}, nil, fmt.Errorf("cluster: unknown frame header bits %#x", hdr)
	}
	h.BDI = hdr&hdrBDI != 0
	if hdr&hdrTrace != 0 {
		if len(rest) < 8 {
			return Header{}, nil, fmt.Errorf("cluster: truncated trace field in frame header")
		}
		h.Traced, h.Trace, rest = true, binary.LittleEndian.Uint64(rest), rest[8:]
	}
	if hdr&hdrKey != 0 {
		if len(rest) < 1 || rest[0] == 0 || len(rest) < 1+int(rest[0]) {
			return Header{}, nil, fmt.Errorf("cluster: bad api key field in frame header")
		}
		n := int(rest[0])
		h.Key, rest = string(rest[1:1+n]), rest[1+n:]
	}
	return h, rest, nil
}

// replyBody parses a reply frame's header and checks it answers op.
func replyBody(frame []byte, op byte) (Header, []byte, error) {
	h, body, err := ParseHeader(frame)
	if err != nil {
		return Header{}, nil, err
	}
	if h.Op != op {
		return Header{}, nil, fmt.Errorf("cluster: reply carries op %#x, want %#x", h.Op, op)
	}
	return h, body, nil
}

// The plain per-request body codec below is the reference the packed frames
// (packed.go) are compared against. Encoders take the header to emit (its Op
// is set for them); request decoders take the body ParseHeader returned,
// because a server parses the header once before it dispatches; reply
// decoders take the whole frame off the transport.

// NeighborsRequest asks for the adjacency lists of IDs.
type NeighborsRequest struct{ IDs []graph.NodeID }

// NeighborsResponse carries one list per requested ID, in request order.
type NeighborsResponse struct {
	Lists [][]graph.NodeID
}

// AttrsRequest asks for attribute vectors of IDs.
type AttrsRequest struct{ IDs []graph.NodeID }

// AttrsResponse carries the concatenated attribute vectors, request order.
type AttrsResponse struct {
	AttrLen int
	Attrs   []float32
}

// MetaResponse describes a server's partition.
type MetaResponse struct {
	NumNodes   int64 // global node count
	AttrLen    int
	Partition  int
	Partitions int
}

func appendIDs(dst []byte, ids []graph.NodeID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, v := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

func readIDs(src []byte) ([]graph.NodeID, []byte, error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("cluster: truncated ID list header")
	}
	n := binary.LittleEndian.Uint32(src)
	src = src[4:]
	if uint64(len(src)) < uint64(n)*8 {
		return nil, nil, fmt.Errorf("cluster: truncated ID list: want %d ids, have %d bytes", n, len(src))
	}
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return ids, src[n*8:], nil
}

// EncodeMetaRequest serializes a meta request; its body is empty.
func EncodeMetaRequest(h Header) []byte {
	h.Op = OpMeta
	return AppendHeader(nil, h)
}

// EncodeNeighborsRequest serializes r.
func EncodeNeighborsRequest(h Header, r NeighborsRequest) []byte {
	h.Op = OpGetNeighbors
	return appendIDs(AppendHeader(nil, h), r.IDs)
}

// DecodeNeighborsRequest parses an OpGetNeighbors request body.
func DecodeNeighborsRequest(body []byte) (NeighborsRequest, error) {
	ids, rest, err := readIDs(body)
	if err != nil {
		return NeighborsRequest{}, err
	}
	if len(rest) != 0 {
		return NeighborsRequest{}, fmt.Errorf("cluster: %d trailing bytes in neighbors request", len(rest))
	}
	return NeighborsRequest{IDs: ids}, nil
}

// EncodeNeighborsResponse serializes r.
func EncodeNeighborsResponse(h Header, r NeighborsResponse) []byte {
	h.Op = OpGetNeighbors
	out := AppendHeader(nil, h)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(r.Lists)))
	for _, l := range r.Lists {
		out = appendIDs(out, l)
	}
	return out
}

// DecodeNeighborsResponse parses an OpGetNeighbors reply frame.
func DecodeNeighborsResponse(frame []byte) (NeighborsResponse, error) {
	_, rest, err := replyBody(frame, OpGetNeighbors)
	if err != nil {
		return NeighborsResponse{}, err
	}
	if len(rest) < 4 {
		return NeighborsResponse{}, fmt.Errorf("cluster: truncated neighbors response")
	}
	n := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	resp := NeighborsResponse{Lists: make([][]graph.NodeID, n)}
	for i := range resp.Lists {
		resp.Lists[i], rest, err = readIDs(rest)
		if err != nil {
			return NeighborsResponse{}, err
		}
	}
	if len(rest) != 0 {
		return NeighborsResponse{}, fmt.Errorf("cluster: %d trailing bytes in neighbors response", len(rest))
	}
	return resp, nil
}

// EncodeAttrsRequest serializes r.
func EncodeAttrsRequest(h Header, r AttrsRequest) []byte {
	h.Op = OpGetAttrs
	return appendIDs(AppendHeader(nil, h), r.IDs)
}

// DecodeAttrsRequest parses an OpGetAttrs request body.
func DecodeAttrsRequest(body []byte) (AttrsRequest, error) {
	ids, rest, err := readIDs(body)
	if err != nil {
		return AttrsRequest{}, err
	}
	if len(rest) != 0 {
		return AttrsRequest{}, fmt.Errorf("cluster: %d trailing bytes in attrs request", len(rest))
	}
	return AttrsRequest{IDs: ids}, nil
}

// EncodeAttrsResponse serializes r.
func EncodeAttrsResponse(h Header, r AttrsResponse) []byte {
	h.Op = OpGetAttrs
	out := AppendHeader(make([]byte, 0, 32+len(h.Key)+4*len(r.Attrs)), h)
	out = binary.LittleEndian.AppendUint32(out, uint32(r.AttrLen))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(r.Attrs)))
	for _, f := range r.Attrs {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(f))
	}
	return out
}

// DecodeAttrsResponse parses an OpGetAttrs reply frame.
func DecodeAttrsResponse(frame []byte) (AttrsResponse, error) {
	_, body, err := replyBody(frame, OpGetAttrs)
	if err != nil {
		return AttrsResponse{}, err
	}
	if len(body) < 8 {
		return AttrsResponse{}, fmt.Errorf("cluster: truncated attrs response")
	}
	attrLen := binary.LittleEndian.Uint32(body)
	n := binary.LittleEndian.Uint32(body[4:])
	rest := body[8:]
	if uint64(len(rest)) != uint64(n)*4 {
		return AttrsResponse{}, fmt.Errorf("cluster: attrs payload %d bytes, want %d floats", len(rest), n)
	}
	attrs := make([]float32, n)
	for i := range attrs {
		attrs[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[i*4:]))
	}
	return AttrsResponse{AttrLen: int(attrLen), Attrs: attrs}, nil
}

// EncodeMetaResponse serializes r.
func EncodeMetaResponse(h Header, r MetaResponse) []byte {
	h.Op = OpMeta
	out := AppendHeader(nil, h)
	out = binary.LittleEndian.AppendUint64(out, uint64(r.NumNodes))
	out = binary.LittleEndian.AppendUint32(out, uint32(r.AttrLen))
	out = binary.LittleEndian.AppendUint32(out, uint32(r.Partition))
	out = binary.LittleEndian.AppendUint32(out, uint32(r.Partitions))
	return out
}

// DecodeMetaResponse parses an OpMeta reply frame.
func DecodeMetaResponse(frame []byte) (MetaResponse, error) {
	_, body, err := replyBody(frame, OpMeta)
	if err != nil {
		return MetaResponse{}, err
	}
	if len(body) != 20 {
		return MetaResponse{}, fmt.Errorf("cluster: meta response body of %d bytes, want 20", len(body))
	}
	return MetaResponse{
		NumNodes:   int64(binary.LittleEndian.Uint64(body)),
		AttrLen:    int(binary.LittleEndian.Uint32(body[8:])),
		Partition:  int(binary.LittleEndian.Uint32(body[12:])),
		Partitions: int(binary.LittleEndian.Uint32(body[16:])),
	}, nil
}
