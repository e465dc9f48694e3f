package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"
)

// metaReq is the meta request tests prime connections with.
var metaReq = EncodeMetaRequest(Header{})

// bare builds a frame with no optional header field around a raw body.
func bare(op byte, body ...byte) []byte {
	return append(AppendHeader(nil, Header{Op: op}), body...)
}

// bodyOf strips a frame's header.
func bodyOf(t *testing.T, frame []byte) []byte {
	t.Helper()
	_, body, err := ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// otherVersion rewrites a frame's version nibble.
func otherVersion(frame []byte, v byte) []byte {
	out := append([]byte(nil), frame...)
	out[1] = out[1]&^hdrVersionMask | v
	return out
}

// TestHeaderRoundTrip walks every presence-bit combination through
// AppendHeader and ParseHeader, as a request (the u64 is a trace ID, a key
// may follow) and as a reply (the u64 is the server's nanoseconds, patched
// in at traceOffset; replies carry no key).
func TestHeaderRoundTrip(t *testing.T) {
	body := []byte{0xde, 0xad, 0xbe, 0xef}
	for bits := 0; bits < 16; bits++ {
		reply := bits&8 != 0
		h := Header{Op: OpPacked, BDI: bits&1 != 0, Traced: bits&2 != 0}
		size := 2
		if h.Traced {
			h.Trace, size = 0x0123456789abcdef, size+8
		}
		if bits&4 != 0 {
			if reply {
				continue
			}
			h.Key, size = "tenant-key", size+1+len("tenant-key")
		}
		t.Run(fmt.Sprintf("%+v/reply=%v", h, reply), func(t *testing.T) {
			frame := append(AppendHeader(nil, h), body...)
			if reply && h.Traced {
				h.Trace = uint64(42 * time.Microsecond)
				binary.LittleEndian.PutUint64(frame[traceOffset:], h.Trace)
			}
			got, rest, err := ParseHeader(frame)
			if err != nil {
				t.Fatal(err)
			}
			if got != h || !bytes.Equal(rest, body) || len(frame) != size+len(body) {
				t.Fatalf("%d-byte header parsed as %+v / %x, want %d bytes, %+v / %x",
					len(frame)-len(rest), got, rest, size, h, body)
			}
		})
	}
}

// FuzzParseHeader hammers the one header parser with hostile bytes. It must
// never panic, must reject every malformed seed (plain go test runs the
// seeds), and whatever it accepts must re-encode to the bytes it was parsed
// from, body included.
func FuzzParseHeader(f *testing.F) {
	traced := AppendHeader(nil, Header{Op: OpGetAttrs, Traced: true, Trace: 7})
	keyed := AppendHeader(nil, Header{Op: OpGetAttrs, Key: "abcdef"})
	for name, seed := range map[string][]byte{
		"empty":             nil,
		"op only":           {OpMeta},
		"truncated trace":   traced[:6],
		"truncated key len": keyed[:2],
		"key len past end":  keyed[:5],
		"zero key len":      {OpMeta, ProtoVersion | hdrKey, 0},
		"unknown version":   otherVersion(metaReq, ProtoVersion-1),
		"unknown bits":      {OpMeta, ProtoVersion | hdrReserved},
	} {
		if _, _, err := ParseHeader(seed); err == nil {
			f.Errorf("%s: %x accepted", name, seed)
		}
		f.Add(seed)
	}
	f.Add(metaReq) // an empty body is legal
	f.Add(append(AppendHeader(nil, Header{Op: OpPacked, BDI: true, Traced: true, Trace: 9, Key: "k"}), 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := ParseHeader(data)
		if err != nil {
			return
		}
		if again := append(AppendHeader(nil, h), body...); !bytes.Equal(again, data) {
			t.Fatalf("re-encoded %x, parsed from %x", again, data)
		}
	})
}

// transportFunc adapts a function to Transport.
type transportFunc func(ctx context.Context, server int, msg []byte) ([]byte, error)

func (f transportFunc) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	return f(ctx, server, msg)
}

// TestClientRejectsOtherVersion checks the client side of "same-tree peers
// only": a peer answering the bootstrap meta fetch in any other version
// fails construction, asked once, with an error naming both versions.
// (TestTCPServerErrorPropagation holds the server side.)
func TestClientRejectsOtherVersion(t *testing.T) {
	part := HashPartitioner{N: 1}
	srv := NewServer(testGraph(t), part, 0)
	calls := 0
	peer := transportFunc(func(ctx context.Context, _ int, msg []byte) ([]byte, error) {
		calls++
		resp, err := srv.Handle(ctx, msg)
		if err != nil {
			return nil, err
		}
		return otherVersion(resp, ProtoVersion+1), nil
	})
	_, err := NewClientContext(bg, peer, part, 0,
		WithResilience(ResilienceConfig{Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}}))
	if err == nil || calls != 1 {
		t.Fatalf("bootstrap against another version: err %v after %d calls, want a failure after 1", err, calls)
	}
	for _, v := range []int{ProtoVersion, ProtoVersion + 1} {
		if !strings.Contains(err.Error(), fmt.Sprintf("v%d", v)) {
			t.Fatalf("bootstrap error %q does not name v%d", err, v)
		}
	}
}
