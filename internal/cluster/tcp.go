package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"lsdgnn/internal/mem"
	"lsdgnn/internal/stats"
)

// TCP transport: length-prefixed protocol messages over stream sockets.
// Frame layout: uint32 length | uint8 status (responses) | body. Requests
// have no status byte. Bodies are read into pooled buffers. One request is
// in flight per connection; the client keeps a small connection pool per
// server for concurrency. Contexts map onto socket deadlines: an expired or
// canceled context wakes any blocked read/write via SetDeadline, so
// in-flight calls abort promptly.

const maxFrameBytes = 1 << 28 // 256 MiB guards against corrupt prefixes

const readChunk = 1 << 20 // the most a frame read allocates ahead of the bytes read

// Response status bytes. statusError carries a failure the client may
// retry (e.g. injected chaos); statusReject carries a *ServerError — a
// deterministic application-level rejection the resilience layer must not
// retry or count against circuit breakers.
const (
	statusOK     = 0
	statusError  = 1
	statusReject = 2
)

// aLongTimeAgo is a deadline in the distant past, used to force blocked
// socket I/O to return immediately (the net/http interrupt idiom).
var aLongTimeAgo = time.Unix(1, 0)

// writeRequest sends a request frame, length prefix and body, in one
// Write through a pooled buffer: on an unbuffered socket under TCP_NODELAY
// two writes leave as two segments, and the server's reader would wake for
// the prefix alone.
func writeRequest(w io.Writer, msg []byte) error {
	frame := mem.Bytes.Get(4 + len(msg))
	defer mem.Bytes.Put(frame)
	binary.LittleEndian.PutUint32(frame, uint32(len(msg)))
	copy(frame[4:], msg)
	_, err := w.Write(frame)
	return err
}

// frameHdr is one connection's frame-header scratch. A header read or
// written through an io.Reader or io.Writer escapes, so each connection
// keeps one for its life instead of allocating one per frame.
type frameHdr [5]byte

// write writes a reply: the length prefix, the status byte and body,
// without copying body behind them. The server's replies go through a
// bufio.Writer, which joins the writes.
func (hdr *frameHdr) write(w io.Writer, status byte, body []byte) error {
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)+1))
	hdr[4] = status
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// read reads one frame into a pooled buffer, grown only as bytes arrive,
// that the caller owns. A reply's length and status byte are read
// together, and the status is returned apart from the body, so the body
// keeps its pool capacity.
func (hdr *frameHdr) read(r io.Reader, reply bool) (body []byte, status byte, err error) {
	head := hdr[:4]
	if reply {
		head = hdr[:]
	}
	// At least the length, then: a zero-length reply must fail now, not
	// block on a status byte that never comes.
	got, err := io.ReadAtLeast(r, head, 4)
	if err != nil {
		return nil, 0, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > maxFrameBytes {
		return nil, 0, fmt.Errorf("cluster: frame of %d bytes exceeds limit", n)
	}
	if reply {
		if n == 0 {
			return nil, 0, errors.New("cluster: empty response frame")
		}
		if got < len(head) {
			if _, err := io.ReadFull(r, hdr[4:]); err != nil {
				return nil, 0, err
			}
		}
		n--
	}
	body = mem.Bytes.GetOwned(min(n, readChunk), false)
	for read := 0; ; {
		if _, err := io.ReadFull(r, body[read:]); err != nil {
			mem.Bytes.Recycle(body)
			return nil, 0, err
		}
		if read = len(body); read == n {
			return body, hdr[4], nil
		}
		more := min(n-read, read)
		body = grow(body, more)[:read+more]
	}
}

// Handler answers raw protocol messages; *Server is the canonical
// implementation, FaultyHandler a chaos-injecting wrapper. Handle keeps
// neither msg (valid until it returns) nor the reply (the caller's).
type Handler interface {
	Handle(ctx context.Context, msg []byte) ([]byte, error)
}

// TCPServer serves one partition over TCP.
type TCPServer struct {
	srv Handler
	ln  net.Listener

	// baseCtx is passed to every Handle; canceled when the server force
	// closes so long-running batch handlers abort.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	closed   bool
	draining bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	// Listener-level counters for the admin plane ("cluster.tcp").
	accepted  stats.Counter // connections accepted over the server's life
	frames    stats.Counter // request frames handled
	frameErrs stats.Counter // handler errors written back as error frames
}

// ServeTCP starts serving srv on addr (e.g. "127.0.0.1:0") and returns the
// running server. Shutdown drains in-flight requests; Close releases the
// listener and all connections immediately.
func ServeTCP(srv Handler, addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCPServer{srv: srv, ln: ln, baseCtx: ctx, cancel: cancel, conns: make(map[net.Conn]struct{})}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listening address.
func (t *TCPServer) Addr() string { return t.ln.Addr().String() }

func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		if t.draining {
			// Draining rejects new connections before any frame is read —
			// resilient clients see the refusal and rotate to a replica —
			// while the listener stays bound so the address is not reused
			// until Shutdown.
			t.mu.Unlock()
			conn.Close()
			continue
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.accepted.Inc()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

func (t *TCPServer) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var hdr frameHdr
	for {
		req, _, err := hdr.read(r, false)
		if err != nil {
			return
		}
		t.frames.Inc()
		resp, err := t.srv.Handle(t.baseCtx, req)
		mem.Bytes.Recycle(req)
		status := byte(statusOK)
		if err != nil {
			t.frameErrs.Inc()
			status, resp = statusError, []byte(err.Error())
			var se *ServerError
			if errors.As(err, &se) {
				status, resp = statusReject, []byte(se.Msg)
			}
		}
		if err := hdr.write(w, status, resp); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		if status == statusOK {
			mem.Bytes.Recycle(resp)
		}
		// After a drain request, finish the response just written and bow
		// out instead of waiting for the next frame.
		t.mu.Lock()
		draining := t.closed || t.draining
		t.mu.Unlock()
		if draining {
			return
		}
	}
}

// SetDraining flips connection-level drain mode. While draining, newly
// accepted connections are closed before a single frame is read, and each
// established connection finishes the request it is currently handling —
// an in-flight packed frame completes — then closes after its response.
// The listener itself stays open, so the sequence for a clean rotation is
// SetDraining(true) first (readiness flips, new work is refused, clients
// fail over), then Shutdown once the fleet has rotated away.
func (t *TCPServer) SetDraining(v bool) {
	t.mu.Lock()
	t.draining = v
	conns := make([]net.Conn, 0, len(t.conns))
	if v {
		for c := range t.conns {
			conns = append(conns, c)
		}
	}
	t.mu.Unlock()
	// Wake idle readers so pooled client connections see EOF now rather
	// than at their next request; a connection mid-request is unaffected —
	// read deadlines interrupt neither the handler nor the response write.
	for _, c := range conns {
		_ = c.SetReadDeadline(aLongTimeAgo)
	}
}

// StatsSnapshot implements stats.Source under the "cluster.tcp" layer:
// open-connection and draining gauges plus lifetime accept/frame/error
// counters.
func (t *TCPServer) StatsSnapshot() stats.Snapshot {
	t.mu.Lock()
	open := len(t.conns)
	draining := 0.0
	if t.draining {
		draining = 1
	}
	t.mu.Unlock()
	return stats.Snapshot{Layer: "cluster.tcp", Metrics: []stats.Metric{
		{Name: "open_conns", Value: float64(open)},
		{Name: "draining", Value: draining},
		t.accepted.Metric("accepted_conns", ""),
		t.frames.Metric("frames", "req"),
		t.frameErrs.Metric("frame_errors", "req"),
	}}
}

// Shutdown stops accepting new work and drains in-flight requests: each
// connection finishes the request it is currently handling (idle
// connections are woken and closed), then the server releases its
// resources. If ctx expires first, remaining handlers are canceled and
// connections force-closed; the context's error is returned.
func (t *TCPServer) Shutdown(ctx context.Context) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return nil
	}
	t.closed = true
	err := t.ln.Close()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	// Wake idle readers: a connection blocked reading a frame returns
	// immediately; one mid-request finishes its response first (read
	// deadlines do not interrupt the handler or the response write).
	for _, c := range conns {
		_ = c.SetReadDeadline(aLongTimeAgo)
	}
	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		t.cancel()
		return err
	case <-ctx.Done():
		t.cancel() // abort in-flight handlers
		t.mu.Lock()
		for c := range t.conns {
			c.Close()
		}
		t.mu.Unlock()
		t.wg.Wait()
		if err == nil {
			err = ctx.Err()
		}
		return err
	}
}

// Close stops the server and closes every connection immediately,
// abandoning in-flight requests. Use Shutdown for a graceful drain.
func (t *TCPServer) Close() error {
	t.cancel()
	t.mu.Lock()
	t.closed = true
	err := t.ln.Close()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}

// TCPTransport connects to a set of partition servers by address.
type TCPTransport struct {
	addrs []string
	pools []chan *tcpConn // per-server idle connections
	size  int
}

// tcpConn is one client connection with the state it keeps across its
// frames: header scratch, and the hook that aborts its blocked I/O when a
// frame's context ends, bound once at dial rather than once per frame.
type tcpConn struct {
	net.Conn
	hdr frameHdr
	// interrupt moves the connection's deadline into the past, waking any
	// blocked read or write.
	interrupt func()
}

// DialTCP creates a transport to the given per-partition addresses with a
// bounded connection pool per server.
func DialTCP(addrs []string, poolSize int) *TCPTransport {
	if poolSize < 1 {
		poolSize = 1
	}
	t := &TCPTransport{addrs: addrs, size: poolSize}
	t.pools = make([]chan *tcpConn, len(addrs))
	for i := range t.pools {
		t.pools[i] = make(chan *tcpConn, poolSize)
	}
	return t
}

// get returns a connection and whether it came from the idle pool — a
// pooled connection may have died while idle (peer restart), so callers
// retry pooled failures on a fresh dial.
func (t *TCPTransport) get(ctx context.Context, server int) (*tcpConn, bool, error) {
	select {
	case c := <-t.pools[server]:
		return c, true, nil
	default:
		c, err := t.dial(ctx, server)
		return c, false, err
	}
}

func (t *TCPTransport) dial(ctx context.Context, server int) (*tcpConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", t.addrs[server])
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}

func newTCPConn(nc net.Conn) *tcpConn {
	return &tcpConn{Conn: nc, interrupt: func() { _ = nc.SetDeadline(aLongTimeAgo) }}
}

func (t *TCPTransport) put(server int, c *tcpConn) {
	select {
	case t.pools[server] <- c:
	default:
		c.Close()
	}
}

// Call implements Transport. The context's deadline is applied to the
// socket, and cancellation interrupts a blocked read or write mid-flight;
// either way the connection is discarded and ctx.Err() is returned. A
// failure on a connection taken from the idle pool is retried once on a
// freshly dialed connection: a restarted peer leaves dead sockets in the
// pool, and those must not poison the next call.
func (t *TCPTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	if server < 0 || server >= len(t.addrs) {
		return nil, fmt.Errorf("cluster: no server %d", server)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conn, pooled, err := t.get(ctx, server)
	if err != nil {
		return nil, err
	}
	resp, status, err := t.attempt(ctx, server, conn, msg)
	if err != nil && pooled && ctx.Err() == nil {
		fresh, derr := t.dial(ctx, server)
		if derr != nil {
			return nil, err
		}
		resp, status, err = t.attempt(ctx, server, fresh, msg)
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		// The socket deadline mirrors ctx's deadline and can fire a tick
		// before the context's own timer reports Done; that i/o timeout is
		// really the caller's deadline expiring.
		if _, hasDL := ctx.Deadline(); hasDL && errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, context.DeadlineExceeded
		}
		return nil, err
	}
	if status == statusOK {
		return resp, nil
	}
	defer mem.Bytes.Recycle(resp)
	if status == statusReject {
		return nil, &ServerError{Server: server, Msg: string(resp)}
	}
	return nil, fmt.Errorf("cluster: server %d: %s", server, string(resp))
}

// attempt runs one framed round trip on conn: deadline applied, the
// connection's interrupt armed to abort blocked I/O on cancellation, and
// the connection pooled on success or closed on failure.
func (t *TCPTransport) attempt(ctx context.Context, server int, conn *tcpConn, msg []byte) ([]byte, byte, error) {
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	// A conn whose interrupt has run may carry a past deadline at any later
	// point, so it is closed, never pooled.
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, conn.interrupt)
	}
	ioErr := writeRequest(conn, msg)
	var resp []byte
	var status byte
	if ioErr == nil {
		resp, status, ioErr = conn.hdr.read(conn, true)
	}
	if ioErr != nil {
		stop()
		conn.Close()
		return nil, 0, ioErr
	}
	if !stop() {
		conn.Close()
		return resp, status, nil
	}
	_ = conn.SetDeadline(time.Time{})
	t.put(server, conn)
	return resp, status, nil
}

// Close drains and closes pooled connections.
func (t *TCPTransport) Close() {
	for _, p := range t.pools {
		for {
			select {
			case c := <-p:
				c.Close()
			default:
				goto next
			}
		}
	next:
	}
}
