package gateway

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"lsdgnn/internal/cluster"
)

// innerHandler is a fake data plane that echoes the frame it received.
type innerHandler struct {
	mu      sync.Mutex
	block   chan struct{}
	got     [][]byte
	started chan struct{}
}

func (h *innerHandler) Handle(ctx context.Context, msg []byte) ([]byte, error) {
	h.mu.Lock()
	h.got = append(h.got, append([]byte(nil), msg...))
	h.mu.Unlock()
	if h.started != nil {
		h.started <- struct{}{}
	}
	if h.block != nil {
		<-h.block
	}
	return append([]byte("ok:"), msg...), nil
}

// keyed builds a frame carrying an API key in its header.
func keyed(key string, body ...byte) []byte {
	return append(cluster.AppendHeader(nil, cluster.Header{Op: 0x7f, Key: key}), body...)
}

func testGate(t *testing.T, cfg WireGateConfig, inner cluster.Handler) *WireGate {
	t.Helper()
	if cfg.Tenants == nil {
		cfg.Tenants = []TenantConfig{{Name: "a", Key: "ak"}}
	}
	g, err := NewWireGate(cfg, inner)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func serverErrContains(t *testing.T, err error, want string) *cluster.ServerError {
	t.Helper()
	var se *cluster.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *cluster.ServerError", err)
	}
	if !strings.Contains(se.Msg, want) {
		t.Fatalf("rejection %q does not mention %q", se.Msg, want)
	}
	return se
}

func TestWireGateAuth(t *testing.T) {
	inner := &innerHandler{}
	g := testGate(t, WireGateConfig{}, inner)

	// Keyed frame passes, and the inner handler sees the same bytes.
	req := keyed("ak", 1, 2)
	resp, err := g.Handle(bg, req)
	if err != nil || string(resp) != "ok:"+string(req) {
		t.Fatalf("keyed frame: (%q, %v)", resp, err)
	}
	if g.Stats().Admitted() != 1 {
		t.Fatal("admitted counter did not move")
	}

	// Unknown key → 401, key redacted.
	_, err = g.Handle(bg, keyed("super-secret-key", 1))
	se := serverErrContains(t, err, "401")
	if strings.Contains(se.Msg, "super-secret-key") {
		t.Fatalf("rejection leaked the full key: %q", se.Msg)
	}

	// Unkeyed non-meta frame → 401.
	_, err = g.Handle(bg, cluster.AppendHeader(nil, cluster.Header{Op: cluster.OpPacked}))
	serverErrContains(t, err, "401")
	if g.Stats().AuthFailures() != 2 {
		t.Fatalf("auth_failures = %d, want 2", g.Stats().AuthFailures())
	}

	// Unkeyed OpMeta passes unauthenticated (bootstrap/discovery).
	if _, err := g.Handle(bg, cluster.EncodeMetaRequest(cluster.Header{})); err != nil {
		t.Fatalf("unkeyed meta rejected: %v", err)
	}

	// Key field running past the frame → 401, not a panic; so does a
	// frame from another protocol version, and the rejection says which.
	_, err = g.Handle(bg, keyed("ak")[:4])
	serverErrContains(t, err, "401")
	stale := keyed("ak")
	stale[1]--
	_, err = g.Handle(bg, stale)
	serverErrContains(t, err, "this build speaks")
}

func TestWireGateRateLimit(t *testing.T) {
	g := testGate(t, WireGateConfig{
		Tenants: []TenantConfig{{Name: "a", Key: "ak", Rate: 1, Burst: 2}},
	}, &innerHandler{})
	req := keyed("ak", 1)
	for i := 0; i < 2; i++ {
		if _, err := g.Handle(bg, req); err != nil {
			t.Fatalf("frame %d within burst: %v", i, err)
		}
	}
	_, err := g.Handle(bg, req)
	serverErrContains(t, err, "429")
	if g.Stats().RateLimited() != 1 || g.Tenant("a").RateLimited() != 1 {
		t.Fatal("ratelimited counters did not move")
	}
}

func TestWireGateShedsAtMaxInflight(t *testing.T) {
	inner := &innerHandler{block: make(chan struct{}), started: make(chan struct{}, 4)}
	g := testGate(t, WireGateConfig{MaxInflight: 1}, inner)
	req := keyed("ak", 1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := g.Handle(bg, req); err != nil {
			t.Errorf("first frame: %v", err)
		}
	}()
	<-inner.started
	_, err := g.Handle(bg, req)
	serverErrContains(t, err, "503")
	if g.Stats().Shed() != 1 {
		t.Fatal("shed counter did not move")
	}
	close(inner.block)
	<-done
	// Capacity freed: frames flow again.
	if _, err := g.Handle(bg, req); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestWireGateValidation(t *testing.T) {
	if _, err := NewWireGate(WireGateConfig{Tenants: []TenantConfig{{Name: "a", Key: "k"}}}, nil); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := NewWireGate(WireGateConfig{}, &innerHandler{}); err == nil {
		t.Fatal("empty tenant list accepted")
	}
	if _, err := NewWireGate(WireGateConfig{Tenants: []TenantConfig{
		{Name: "a", Key: "k"}, {Name: "b", Key: "k"},
	}}, &innerHandler{}); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestWireGateSnapshot(t *testing.T) {
	g := testGate(t, WireGateConfig{Tenants: []TenantConfig{
		{Name: "b", Key: "bk"}, {Name: "a", Key: "ak"},
	}}, &innerHandler{})
	if _, err := g.Handle(bg, keyed("ak", 1)); err != nil {
		t.Fatal(err)
	}
	rows := g.Snapshot()
	if len(rows) != 2 || rows[0].Name != "a" || rows[1].Name != "b" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Admitted != 1 || rows[0].Completed != 1 {
		t.Fatalf("tenant a row = %+v", rows[0])
	}
	if len(g.Sources()) != 3 {
		t.Fatalf("sources = %d, want 3", len(g.Sources()))
	}
}
