package cluster

import (
	"encoding/binary"
	"fmt"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
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

// Frame ops: OpMeta here, OpPacked (packed.go) for every data fetch.
const OpMeta = 0x03

// ProtoVersion is this build's wire protocol version, carried in every
// frame header. A v4 peer, which still sends GetNeighbors/GetAttrs as frames
// of their own, fails its bootstrap on the version instead of meeting
// "unknown op" mid-run.
const ProtoVersion = 5

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

// Request and response payloads. The four fetch types travel as OpPacked
// sub-requests (packed.go); only meta has a frame of its own.

// NeighborsRequest asks for the adjacency lists of IDs.
type NeighborsRequest struct{ IDs []graph.NodeID }

// NeighborsResponse carries one list per requested ID, in request order.
type NeighborsResponse struct {
	Lists [][]graph.NodeID
}

// AttrsRequest asks for attribute vectors of IDs.
type AttrsRequest struct{ IDs []graph.NodeID }

// AttrsResponse carries the attribute vectors, request order, as float32 LE.
type AttrsResponse struct {
	AttrLen int
	Payload []byte
}

// MetaResponse describes a server's partition.
type MetaResponse struct {
	NumNodes   int64 // global node count
	AttrLen    int
	Partition  int
	Partitions int
}

// EncodeMetaRequest serializes a meta request; its body is empty.
func EncodeMetaRequest(h Header) []byte {
	h.Op = OpMeta
	return AppendHeader(nil, h)
}

// EncodeMetaResponse serializes r into a pooled frame the caller owns.
func EncodeMetaResponse(h Header, r MetaResponse) []byte {
	h.Op = OpMeta
	out := AppendHeader(mem.Bytes.GetOwned(64, false)[:0], h)
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
