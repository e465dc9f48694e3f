package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lsdgnn/internal/mem"
)

// Fault injection for chaos-testing the distributed sampling path.
// FaultyTransport wraps a client-side Transport; FaultyHandler wraps a
// server-side Handler, so real TCP deployments (lsdgnn-server
// -chaos-error-rate) can misbehave too. Both draw from a seeded RNG so
// chaos runs are reproducible.

// Injected fault sentinels, matchable with errors.Is.
var (
	ErrInjected    = errors.New("cluster: injected fault")
	ErrConnDropped = errors.New("cluster: injected connection drop")
	ErrServerDown  = errors.New("cluster: injected server down")
)

// FaultSpec configures the failure mix injected for one server (or, as the
// global spec, for all servers without a per-server override). Rates are
// per-call probabilities in [0,1], evaluated in order: Down, ErrRate,
// DropRate, HangRate; at most one failure fires per call, plus an optional
// latency spike.
type FaultSpec struct {
	// ErrRate fails the call immediately with ErrInjected — the clean
	// refused-connection case.
	ErrRate float64
	// DropRate lets the request reach the server but loses the response
	// (ErrConnDropped) — the connection-drop case where server work is not
	// idempotent-free.
	DropRate float64
	// HangRate blocks the call until ctx is done — the stalled-peer case a
	// deadline must defend against.
	HangRate float64
	// SpikeRate adds Spike of latency before the call proceeds.
	SpikeRate float64
	Spike     time.Duration
	// Down marks the server dead: every call fails with ErrServerDown.
	Down bool
}

// FaultyTransport wraps a Transport with configurable per-server failure
// injection. Safe for concurrent Call and reconfiguration.
type FaultyTransport struct {
	inner Transport

	mu        sync.Mutex
	rng       *rand.Rand
	global    FaultSpec
	perServer map[int]FaultSpec
	calls     int64
	injected  int64
}

// NewFaultyTransport wraps inner; seed makes the injected failure sequence
// deterministic.
func NewFaultyTransport(inner Transport, seed int64) *FaultyTransport {
	return &FaultyTransport{
		inner:     inner,
		rng:       rand.New(rand.NewSource(seed)),
		perServer: make(map[int]FaultSpec),
	}
}

// SetFaults installs the spec applied to every server without a per-server
// override.
func (t *FaultyTransport) SetFaults(spec FaultSpec) {
	t.mu.Lock()
	t.global = spec
	t.mu.Unlock()
}

// KillServer marks a server dead (every call fails with ErrServerDown).
func (t *FaultyTransport) KillServer(server int) {
	t.mu.Lock()
	t.perServer[server] = FaultSpec{Down: true}
	t.mu.Unlock()
}

// ReviveServer restores a killed server to the global spec.
func (t *FaultyTransport) ReviveServer(server int) {
	t.mu.Lock()
	delete(t.perServer, server)
	t.mu.Unlock()
}

// Counts returns total calls seen and failures injected.
func (t *FaultyTransport) Counts() (calls, injected int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls, t.injected
}

// plan decides this call's fate under the spec. A single uniform draw is
// partitioned across the failure rates so at most one fires.
type faultPlan struct {
	spike              time.Duration
	down, errOut, hang bool
	drop               bool
}

func planFault(rng *rand.Rand, spec FaultSpec) faultPlan {
	var p faultPlan
	if spec.Down {
		p.down = true
		return p
	}
	if spec.SpikeRate > 0 && rng.Float64() < spec.SpikeRate {
		p.spike = spec.Spike
	}
	r := rng.Float64()
	switch {
	case r < spec.ErrRate:
		p.errOut = true
	case r < spec.ErrRate+spec.DropRate:
		p.drop = true
	case r < spec.ErrRate+spec.DropRate+spec.HangRate:
		p.hang = true
	}
	return p
}

func (t *FaultyTransport) plan(server int) faultPlan {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	spec, ok := t.perServer[server]
	if !ok {
		spec = t.global
	}
	p := planFault(t.rng, spec)
	if p.down || p.errOut || p.drop || p.hang {
		t.injected++
	}
	return p
}

// run carries out one call under the plan: a down server, an injected
// error or a hang fails it without calling; a drop makes the call (the
// work happens) and loses the response; otherwise the call goes through.
// A latency spike precedes all but a down server. wrap dresses the
// injected sentinels for the caller's error text.
func (p faultPlan) run(ctx context.Context, wrap func(error) error, call func() ([]byte, error)) ([]byte, error) {
	if p.down {
		return nil, wrap(ErrServerDown)
	}
	if p.spike > 0 {
		timer := time.NewTimer(p.spike)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	switch {
	case p.errOut:
		return nil, wrap(ErrInjected)
	case p.hang:
		<-ctx.Done()
		return nil, ctx.Err()
	case p.drop:
		resp, err := call()
		if err != nil {
			return nil, err
		}
		mem.Bytes.Recycle(resp)
		return nil, wrap(ErrConnDropped)
	}
	return call()
}

// Call implements Transport.
func (t *FaultyTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	return t.plan(server).run(ctx,
		func(err error) error { return fmt.Errorf("server %d: %w", server, err) },
		func() ([]byte, error) { return t.inner.Call(ctx, server, msg) })
}

// FaultyHandler wraps a server-side Handler with injected failures — the
// peer-side counterpart of FaultyTransport, used by lsdgnn-server's chaos
// flags so a real TCP cluster can exercise client resilience.
type FaultyHandler struct {
	inner Handler

	// armed short-circuits Handle to the inner handler while the spec is
	// empty, so a server can keep the wrapper permanently installed (for
	// runtime /chaos arming) at the cost of one atomic load per request.
	armed atomic.Bool

	mu   sync.Mutex
	rng  *rand.Rand
	spec FaultSpec
}

// NewFaultyHandler wraps inner with the given failure mix.
func NewFaultyHandler(inner Handler, spec FaultSpec, seed int64) *FaultyHandler {
	h := &FaultyHandler{inner: inner, rng: rand.New(rand.NewSource(seed)), spec: spec}
	h.armed.Store(spec != FaultSpec{})
	return h
}

// SetFaults replaces the failure mix at runtime (the zero spec disarms
// injection entirely). Safe to call while serving.
func (h *FaultyHandler) SetFaults(spec FaultSpec) {
	h.mu.Lock()
	h.spec = spec
	h.mu.Unlock()
	h.armed.Store(spec != FaultSpec{})
}

// Faults returns the current failure mix.
func (h *FaultyHandler) Faults() FaultSpec {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.spec
}

// Handle implements Handler. Injected failures surface as handler errors,
// which the TCP framing reports to the client as error frames.
func (h *FaultyHandler) Handle(ctx context.Context, msg []byte) ([]byte, error) {
	if !h.armed.Load() {
		return h.inner.Handle(ctx, msg)
	}
	h.mu.Lock()
	p := planFault(h.rng, h.spec)
	h.mu.Unlock()
	return p.run(ctx,
		func(err error) error { return err },
		func() ([]byte, error) { return h.inner.Handle(ctx, msg) })
}
