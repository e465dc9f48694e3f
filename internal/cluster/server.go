package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/stats"
	"lsdgnn/internal/trace"
)

// Backend is the graph view a shard server answers from. *graph.Graph is
// the in-memory backend; *store.DiskStore satisfies the same shape, so a
// server can serve a partition straight off a persistent segment+WAL
// store without the cluster layer knowing. Implementations must be safe
// for concurrent readers.
type Backend interface {
	NumNodes() int64
	AttrLen() int
	// AttrBytes returns the wire size of one attribute vector.
	AttrBytes() int
	// Neighbors returns v's adjacency, the scalar form of NeighborsBatch.
	// No server path calls it.
	Neighbors(v graph.NodeID) []graph.NodeID
	// Attr appends v's attribute vector to dst, the scalar form of
	// AttrsBatch. No server path calls it.
	Attr(dst []float32, v graph.NodeID) []float32
	// NeighborsBatch fills dst[i] with the adjacency of vs[i], the
	// sampler.Store method. The server hands it each neighbours sub a
	// chunk at a time, every ID already range-checked, into list scratch
	// it holds until the reply is encoded: each list must stay valid and
	// unmodified until then. It may alias immutable storage or be fresh,
	// but never a buffer the backend reuses on a later call.
	NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error
	// AttrsBatch writes the attribute vectors of vs row-major into dst
	// (len(vs) × AttrLen), the sampler.Store method. The server hands it
	// each attrs sub a chunk at a time, every ID already range-checked.
	AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error
}

// Server owns one graph partition and answers batched requests. A Server is
// safe for concurrent use: the backend serves concurrent readers and stats
// use internal locking. Request handlers take a context so large batches
// abort promptly when the caller cancels or its deadline expires.
type Server struct {
	g         Backend
	part      Partitioner
	partition int
	stats     *trace.AccessStats
	// lat records per-request Handle latency ("cluster.server") — the
	// server-side half of the per-hop breakdown, also reported to traced
	// clients in the reply header.
	lat *stats.Latency
	// wire counts request/response bytes crossing Handle plus the packed
	// share and BDI compression ratio ("cluster.wire").
	wire *WireStats
	// log, when set, emits trace-annotated request logs.
	log atomic.Pointer[slog.Logger]
	// tracer, when set, records a HopServer span per handled request so
	// /trace/{id} on the server's admin plane can show its side of a trace.
	tracer atomic.Pointer[obs.Tracer]
}

// SetTracer attaches a tracer recording server-side Handle spans (nil
// detaches). Safe to call while serving.
func (s *Server) SetTracer(t *obs.Tracer) { s.tracer.Store(t) }

// ctxCheckStride is how many request items a handler processes between
// context checks — frequent enough to bound overrun, cheap enough to
// disappear in the per-item cost.
const ctxCheckStride = 256

// NewServer creates a server for the given partition. All servers share the
// full immutable graph object in-process but only answer for nodes they
// own, mirroring a real deployment where each holds its shard; requests for
// foreign nodes are rejected, which catches routing bugs in the client.
func NewServer(g *graph.Graph, part Partitioner, partition int) *Server {
	return NewBackendServer(g, part, partition)
}

// NewBackendServer creates a server answering from an arbitrary Backend —
// the constructor persistent-store deployments use (lsdgnn-server
// -store-path hands a *store.DiskStore here).
func NewBackendServer(b Backend, part Partitioner, partition int) *Server {
	if partition < 0 || partition >= part.Servers() {
		panic(fmt.Sprintf("cluster: partition %d out of %d", partition, part.Servers()))
	}
	return &Server{
		g: b, part: part, partition: partition,
		stats: &trace.AccessStats{},
		lat:   stats.NewLatency("cluster.server"),
		wire:  &WireStats{},
	}
}

// Partition returns this server's partition index.
func (s *Server) Partition() int { return s.partition }

// Stats exposes the server-side access statistics.
func (s *Server) Stats() *trace.AccessStats { return s.stats }

// Latency exposes the per-request Handle latency recorder
// ("cluster.server" layer).
func (s *Server) Latency() *stats.Latency { return s.lat }

// Wire exposes the wire-traffic statistics ("cluster.wire" layer).
func (s *Server) Wire() *WireStats { return s.wire }

// SetLogger installs a structured logger for request logging: each handled
// request at Debug (with trace ID, op, duration), rejections at Warn. Nil
// disables logging. Safe to call concurrently with serving.
func (s *Server) SetLogger(l *slog.Logger) { s.log.Store(l) }

// Meta answers an OpMeta request.
func (s *Server) Meta() MetaResponse {
	return MetaResponse{
		NumNodes:   s.g.NumNodes(),
		AttrLen:    s.g.AttrLen(),
		Partition:  s.partition,
		Partitions: s.part.Servers(),
	}
}

// checkID rejects node IDs outside the graph's ID space or not owned by
// this partition. Malformed or hostile frames can carry arbitrary 64-bit
// IDs; they must come back as errors, never index panics.
func (s *Server) checkID(v graph.NodeID) error {
	// Compare in uint64 space: IDs at or above 2^63 would turn negative as
	// int64 and slip past a signed bounds check.
	if uint64(v) >= uint64(s.g.NumNodes()) {
		return fmt.Errorf("cluster: node %d outside graph of %d nodes", v, s.g.NumNodes())
	}
	if o := s.part.Owner(v); o != s.partition {
		return fmt.Errorf("cluster: node %d routed to server %d but owned by %d", v, s.partition, o)
	}
	return nil
}

// servePrefixes walks ids a ctxCheckStride chunk at a time: it checks
// ctx, range-checks the chunk up to its first bad ID, hands the valid
// prefix and its offset in ids to read — one store call — and then returns
// the bad ID's error, so a sub is served up to its first bad ID and no
// further.
func (s *Server) servePrefixes(ctx context.Context, ids []graph.NodeID, read func(at int, chunk []graph.NodeID) error) error {
	for start := 0; start < len(ids); start += ctxCheckStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := ids[start:min(start+ctxCheckStride, len(ids))]
		var bad error
		for n, v := range chunk {
			if bad = s.checkID(v); bad != nil {
				chunk = chunk[:n]
				break
			}
		}
		if len(chunk) > 0 {
			if err := read(start, chunk); err != nil {
				return err
			}
		}
		if bad != nil {
			return bad
		}
	}
	return nil
}

// appendNeighborLists answers a neighbours sub straight into the reply
// frame: one NeighborsBatch call per checked chunk into pooled list
// scratch, which the server holds until the lists are encoded. A store
// failure comes back as an error, so the sub is rejected, not served.
// Every list served is one fine-grained structure access — offset lookup
// plus ID list — and the sub's accesses are recorded once, however it
// ends.
func (s *Server) appendNeighborLists(ctx context.Context, out []byte, ids []graph.NodeID, bdi bool) ([]byte, error) {
	lists := mem.Lists.Get(len(ids))
	defer mem.Lists.Put(lists)
	var served, nbytes int
	defer func() { s.stats.Record(trace.AccessStructure, served, nbytes, false) }()
	err := s.servePrefixes(ctx, ids, func(at int, chunk []graph.NodeID) error {
		got := lists[at : at+len(chunk)]
		if err := s.g.NeighborsBatch(ctx, got, chunk); err != nil {
			return fmt.Errorf("cluster: neighbor read: %w", err)
		}
		for _, l := range got {
			nbytes += 16 + len(l)*8
		}
		served += len(chunk)
		return nil
	})
	if err != nil {
		return out, err
	}
	return appendNeighbors(out, lists, bdi, &s.wire.Codec), nil
}

// appendAttrs answers an attrs sub straight into the reply frame: one
// AttrsBatch call per checked chunk into pooled scratch, put in place in a
// raw section. A store failure comes back as an error too. Its attribute
// accesses, up to the first failure, are recorded once, like
// appendNeighborLists'.
func (s *Server) appendAttrs(ctx context.Context, out []byte, ids []graph.NodeID) ([]byte, error) {
	al := s.g.AttrLen()
	out, payload := appendAttrsHead(out, al, len(ids)*al*4)
	scratch := mem.Floats.Get(min(len(ids), ctxCheckStride) * al)
	defer mem.Floats.Put(scratch)
	var served int
	defer func() { s.stats.Record(trace.AccessAttribute, served, served*s.g.AttrBytes(), false) }()
	err := s.servePrefixes(ctx, ids, func(at int, chunk []graph.NodeID) error {
		vecs := scratch[:len(chunk)*al]
		if err := s.g.AttrsBatch(ctx, vecs, chunk); err != nil {
			return fmt.Errorf("cluster: attribute read: %w", err)
		}
		putFloats(payload[at*al*4:], vecs)
		served += len(chunk)
		return nil
	})
	return out, err
}

// Handle dispatches a raw protocol message and returns the raw response,
// the path the transports use. A malformed frame from a remote peer must
// never take the server down: decoding failures are returned as errors and
// any residual panic in a handler is converted to an error at this
// boundary. Rejections come back typed as *ServerError — the verdict of a
// live server on a bad request, deterministic per request — so the client
// resilience layer neither retries them nor counts them against circuit
// breakers; a frame from another protocol version is one of them. Context
// errors pass through untyped: they belong to the caller, not the request.
//
// The frame header is parsed once, in place: a trace ID joins the request
// context (and the request log), and the reply then carries the measured
// handling time in the slot its encoder reserved, so the client can split
// wire from server latency per hop.
func (s *Server) Handle(ctx context.Context, msg []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("cluster: request failed: %v", r)
		}
		if err != nil && ctx.Err() == nil {
			var se *ServerError
			if !errors.As(err, &se) {
				err = &ServerError{Server: s.partition, Msg: err.Error()}
			}
		}
	}()
	defer func(in int) { s.wire.recordFrame(in, len(resp)) }(len(msg))
	h, body, err := ParseHeader(msg)
	if err != nil {
		return nil, err
	}
	id := obs.TraceID(h.Trace)
	if h.Traced {
		ctx = obs.WithTrace(ctx, id)
	}
	start := time.Now()
	resp, err = s.dispatch(ctx, h, body)
	dur := time.Since(start)
	if err == nil {
		s.lat.ObserveTrace(dur, uint64(id))
	} else if ctx.Err() == nil {
		s.lat.ObserveError()
	}
	if tr := s.tracer.Load(); tr != nil {
		tr.ObserveErr(id, obs.HopServer, "", start, dur, err != nil)
	}
	s.logRequest(ctx, id, h.Op, dur, err)
	if err == nil && h.Traced {
		binary.LittleEndian.PutUint64(resp[traceOffset:], uint64(dur))
	}
	return resp, err
}

// dispatch routes one parsed request to its handler. The reply header
// echoes the request's BDI choice and reserves the handling-time slot when
// the request was traced.
func (s *Server) dispatch(ctx context.Context, h Header, body []byte) ([]byte, error) {
	reply := Header{BDI: h.BDI, Traced: h.Traced}
	switch h.Op {
	case OpPacked:
		return s.handlePacked(ctx, reply, body)
	case OpMeta:
		if len(body) != 0 {
			return nil, fmt.Errorf("cluster: %d trailing bytes in meta request", len(body))
		}
		return EncodeMetaResponse(reply, s.Meta()), nil
	default:
		return nil, fmt.Errorf("cluster: unknown op %#x", h.Op)
	}
}

// handlePacked serves an OpPacked frame: every sub-request is dispatched
// against this partition and answered in place, so one shard rejecting a
// node ID fails only its own sub-slot while its siblings still return data
// (the client resilience layer then judges each sub on its own status).
// Only a context error aborts the whole frame — that belongs to the caller,
// not the requests. The reply is a pooled frame the caller owns.
func (s *Server) handlePacked(ctx context.Context, reply Header, body []byte) ([]byte, error) {
	// Request IDs decode into pooled scratch, a one-sub frame's sub into
	// stack scratch; both are handed back once the reply is encoded, on
	// every path out.
	var one [1]PackedSubRequest
	subs, err := decodePackedRequest(one[:0], body, reply.BDI, &s.wire.Codec, true)
	if err != nil {
		return nil, err
	}
	defer putSubIDs(subs)
	s.wire.recordPacked(len(subs))
	reply.Op = OpPacked // each sub grows the frame to fit as it writes
	out := AppendHeader(mem.Bytes.GetOwned(64, false)[:0], reply)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(subs)))
	for _, sub := range subs {
		lenAt := len(out)
		out = append(out, 0, 0, 0, 0) // body length, patched below
		if sub.Op == OpGetAttrs {
			out, err = s.appendAttrs(ctx, out, sub.Attrs.IDs)
		} else {
			out, err = s.appendNeighborLists(ctx, out, sub.Neighbors.IDs, reply.BDI)
		}
		if err != nil {
			if ctx.Err() != nil {
				mem.Bytes.Recycle(out)
				return nil, err
			}
			// Back the sub out to its own start; its rejection replaces it.
			out = append(append(out[:lenAt+4], statusReject), err.Error()...)
		}
		binary.LittleEndian.PutUint32(out[lenAt:], uint32(len(out)-lenAt-4))
	}
	return out, nil
}

// logRequest emits one structured request log line when a logger is set
// and takes the line's level: a served request logs at Debug, so under the
// usual Info logger it builds nothing.
func (s *Server) logRequest(ctx context.Context, id obs.TraceID, op byte, dur time.Duration, err error) {
	l := s.log.Load()
	level := slog.LevelDebug
	if err != nil {
		level = slog.LevelWarn
	}
	if l == nil || !l.Enabled(ctx, level) {
		return
	}
	attrs := []any{
		slog.Int("partition", s.partition),
		slog.String("op", fmt.Sprintf("%#x", op)),
		slog.Uint64("trace", uint64(id)),
		slog.Duration("dur", dur),
	}
	if err != nil {
		l.Warn("request rejected", append(attrs, slog.String("err", err.Error()))...)
		return
	}
	l.Debug("request served", attrs...)
}
