package gateway

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/stats"
)

// WireGateConfig assembles a WireGate — the gateway's enforcement point on
// the TCP serving plane.
type WireGateConfig struct {
	// Tenants declares every tenant; at least one is required. Rate and
	// Burst apply per frame here (the wire plane cannot see roots).
	Tenants []TenantConfig
	// MaxInflight bounds frames concurrently inside the server across all
	// tenants; excess frames are shed with a 503-class rejection. 0
	// disables the cap.
	MaxInflight int
	// Clock overrides time.Now for the rate-limit buckets (tests).
	Clock func() time.Time
}

// wireTenant is one tenant's wire-plane state.
type wireTenant struct {
	cfg    TenantConfig
	bucket *bucket
	stats  *TenantStats
}

// WireGate wraps a cluster.Handler with per-tenant key authentication,
// frame-rate limiting, and an in-flight shed cap. It sits OUTERMOST in
// the server's handler chain — outside the SLO middleware — so rejected
// traffic never burns the server's error budget: a tenant over its rate
// is the tenant's problem, not the operator's.
//
// Rejections are *cluster.ServerError values, which ride the TCP reject
// status: deterministic, never retried, never counted against the
// client's circuit breakers. An unkeyed OpMeta frame (version discovery)
// passes unauthenticated so bootstrap against a gated server still works
// for clients probing capabilities; every other unkeyed frame is a
// 401-class rejection.
type WireGate struct {
	inner       cluster.Handler
	stats       Stats
	byKey       map[string]*wireTenant
	order       []*wireTenant
	cfgs        []TenantConfig
	maxInflight int64
	inflight    atomic.Int64
}

// NewWireGate builds a gate over inner.
func NewWireGate(cfg WireGateConfig, inner cluster.Handler) (*WireGate, error) {
	if inner == nil {
		return nil, fmt.Errorf("gateway: wire gate needs an inner handler")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("gateway: no tenants configured")
	}
	g := &WireGate{
		inner:       inner,
		byKey:       map[string]*wireTenant{},
		maxInflight: int64(cfg.MaxInflight),
	}
	for _, tc := range cfg.Tenants {
		norm, err := tc.withDefaults()
		if err != nil {
			return nil, err
		}
		if g.byKey[norm.Key] != nil {
			return nil, fmt.Errorf("gateway: duplicate api key for tenant %q", norm.Name)
		}
		t := &wireTenant{
			cfg:    norm,
			bucket: newBucket(norm.Rate, norm.Burst, cfg.Clock),
			stats:  newTenantStats(norm.Name),
		}
		g.byKey[norm.Key] = t
		g.order = append(g.order, t)
		g.cfgs = append(g.cfgs, norm)
	}
	return g, nil
}

// Stats exposes the gate's "gateway" stats layer.
func (g *WireGate) Stats() *Stats { return &g.stats }

// Tenant returns the named tenant's stats layer (nil if unknown).
func (g *WireGate) Tenant(name string) *TenantStats {
	for _, t := range g.order {
		if t.cfg.Name == name {
			return t.stats
		}
	}
	return nil
}

// Sources lists the gate's stats sources: the "gateway" layer plus one
// "gateway.<name>" layer per tenant.
func (g *WireGate) Sources() []stats.Source {
	out := []stats.Source{&g.stats}
	for _, t := range g.order {
		out = append(out, t.stats)
	}
	return out
}

// Snapshot returns the /tenants view.
func (g *WireGate) Snapshot() []TenantSnapshot {
	sts := make(map[string]*TenantStats, len(g.order))
	for _, t := range g.order {
		sts[t.cfg.Name] = t.stats
	}
	return snapshotTenants(g.cfgs, sts)
}

// Handle implements cluster.Handler: read the tenant key from the frame
// header, admit or reject, then hand the same frame inward.
func (g *WireGate) Handle(ctx context.Context, msg []byte) ([]byte, error) {
	h, _, err := cluster.ParseHeader(msg)
	if err != nil {
		g.stats.authFailures.Inc()
		return nil, &cluster.ServerError{Msg: "gateway: 401 unauthorized: " + err.Error()}
	}
	if h.Key == "" {
		// Version discovery stays open: a keyed client keys its meta
		// request too, but an anonymous probe may ask what this server
		// speaks before authenticating.
		if h.Op == cluster.OpMeta {
			return g.inner.Handle(ctx, msg)
		}
		g.stats.authFailures.Inc()
		return nil, &cluster.ServerError{Msg: "gateway: 401 unauthorized: request carries no api key"}
	}
	t := g.byKey[h.Key]
	if t == nil {
		g.stats.authFailures.Inc()
		return nil, &cluster.ServerError{Msg: "gateway: 401 unauthorized: unknown api key " + redactKey(h.Key)}
	}
	if ok, retry := t.bucket.take(1); !ok {
		g.stats.ratelimited.Inc()
		t.stats.ratelimited.Inc()
		return nil, &cluster.ServerError{
			Msg: "gateway: 429 rate limited: tenant " + t.cfg.Name + " over rate, retry after " + retry.String(),
		}
	}
	if g.maxInflight > 0 && g.inflight.Load() >= g.maxInflight {
		g.stats.shed.Inc()
		t.stats.shed.Inc()
		return nil, &cluster.ServerError{Msg: "gateway: 503 shed: server at max in-flight frames"}
	}
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	g.stats.admitted.Inc()
	t.stats.admitted.Inc()
	start := time.Now()
	resp, err := g.inner.Handle(ctx, msg)
	dur := time.Since(start)
	if err != nil {
		g.stats.batchErrors.Inc()
		t.stats.batchErrors.Inc()
		t.stats.lat.ObserveError()
		return nil, err
	}
	g.stats.completed.Inc()
	t.stats.completed.Inc()
	t.stats.lat.Observe(dur)
	return resp, nil
}
