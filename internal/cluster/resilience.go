package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/stats"
)

// Resilience layer for the distributed sampling path. The paper's FaaS
// premise (§6) is a shared service over hundreds of disaggregated nodes
// whose fabric is lossy enough that MoF ships its own go-back-N ARQ
// (§4.3, internal/mof/reliability.go). This file is the software-control-
// plane counterpart: bounded retries with exponential backoff + jitter,
// per-endpoint circuit breakers, replica failover, and counters for all of
// it under the "cluster.resilience" stats layer. Like MoF's single-path
// retransmission, a partition call is one sequential loop of passes: a
// request frame has exactly one reader at a time.

// RetryPolicy bounds how a failed partition call is re-attempted. One
// attempt is a full pass over the partition's endpoint list (primary, then
// replicas); passes after the first are separated by exponential backoff
// with jitter.
type RetryPolicy struct {
	// MaxAttempts is the number of endpoint passes before giving up (≥1).
	MaxAttempts int
	// BaseBackoff separates the first and second pass; it doubles each
	// further pass.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Jitter randomizes each backoff downward by up to this fraction
	// ([0,1]), de-synchronizing retry storms across workers.
	Jitter float64
}

// DefaultRetryPolicy returns the policy used when a zero RetryPolicy is
// configured: 3 passes, 2ms base backoff doubling to a 100ms cap, 50%
// jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Jitter: 0.5}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	} else if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// BreakerConfig tunes the per-endpoint circuit breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive failures open the breaker.
	Threshold int
	// OpenFor is how long an open breaker sheds load before letting one
	// half-open probe through.
	OpenFor time.Duration
}

// DefaultBreakerConfig returns the breaker tuning used when a zero
// BreakerConfig is configured.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{Threshold: 5, OpenFor: 250 * time.Millisecond}
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	d := DefaultBreakerConfig()
	if c.Threshold <= 0 {
		c.Threshold = d.Threshold
	}
	if c.OpenFor <= 0 {
		c.OpenFor = d.OpenFor
	}
	return c
}

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states: closed passes calls, open rejects them, half-open lets a
// single probe through to test recovery.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// breaker is one endpoint's circuit breaker.
type breaker struct {
	cfg BreakerConfig
	st  *ResilienceStats
	// tr, when set, records state transitions as tracer events (nil-safe).
	tr *obs.Tracer
	// ep is the endpoint index, for transition-event notes.
	ep int

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// Allow reports whether a call may proceed and whether the caller now
// holds the half-open probe slot. An open breaker transitions to half-open
// once OpenFor has elapsed and admits exactly one probe at a time. A probe
// holder must resolve the slot — onSuccess, onFailure, or abandon — or
// half-open would never admit another probe and the endpoint would stay
// blacklisted forever.
func (b *breaker) Allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if time.Since(b.openedAt) < b.cfg.OpenFor {
			return false, false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		b.st.add(&b.st.snap.BreakerHalfOpens)
		b.tr.Event(0, "breaker_half_open", fmt.Sprintf("endpoint %d", b.ep))
		return true, true
	default: // half-open
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// State returns the breaker's current position (open breakers past their
// OpenFor window still report open until a probe is admitted).
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.st.add(&b.st.snap.BreakerCloses)
		b.tr.Event(0, "breaker_close", fmt.Sprintf("endpoint %d", b.ep))
	}
	b.failures = 0
	b.probing = false
}

// abandon releases a half-open probe whose call was cut short by ctx
// before reaching a verdict. The endpoint's health is still unknown, so the
// state is left as-is: the next Allow admits a fresh probe instead of
// rejecting forever.
func (b *breaker) abandon() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.probing = false
		b.st.add(&b.st.snap.BreakerOpens)
		b.tr.Event(0, "breaker_open", fmt.Sprintf("endpoint %d", b.ep))
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.state = BreakerOpen
			b.openedAt = time.Now()
			b.st.add(&b.st.snap.BreakerOpens)
			b.tr.Event(0, "breaker_open", fmt.Sprintf("endpoint %d", b.ep))
		}
	}
}

// ResilienceConfig assembles the client-side fault-tolerance policy.
type ResilienceConfig struct {
	// Retry bounds re-attempts; zero fields take DefaultRetryPolicy.
	Retry RetryPolicy
	// Breaker tunes per-endpoint circuit breakers; zero fields take
	// DefaultBreakerConfig.
	Breaker BreakerConfig
	// PartialResults degrades shard failures to empty per-node results
	// with a *PartialError annotation instead of failing the whole batch.
	PartialResults bool
	// Seed makes backoff jitter deterministic for reproducible chaos runs;
	// 0 uses a fixed default seed.
	Seed int64
}

// DefaultResilienceConfig returns retries + breakers with default tuning
// and fail-closed batches.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{Retry: DefaultRetryPolicy(), Breaker: DefaultBreakerConfig()}
}

// failFast is the policy of a client built without WithResilience: one
// pass, no backoff, and a breaker that never opens. Failover still walks
// the partition's serving endpoints within that pass.
var failFast = ResilienceConfig{Retry: RetryPolicy{MaxAttempts: 1}, Breaker: BreakerConfig{Threshold: math.MaxInt}}

// ResilienceSnapshot is a point-in-time copy of resilience counters.
type ResilienceSnapshot struct {
	Retries          int64 // backoff-delayed endpoint passes
	Failovers        int64 // calls shifted to a replica after a primary failure/reject
	BreakerOpens     int64 // closed/half-open → open transitions
	BreakerHalfOpens int64 // open → half-open transitions
	BreakerCloses    int64 // half-open → closed transitions
	BreakerRejects   int64 // calls skipped because an endpoint's breaker was open
	ShardErrors      int64 // per-shard failures absorbed by PartialResults
}

// ResilienceStats tallies resilience events. Safe for concurrent use; the
// zero value is usable, so lsdgnn-server can pre-register the series.
type ResilienceStats struct {
	mu   sync.Mutex
	snap ResilienceSnapshot
	// breakers, set once a client binds its executor, feeds the
	// open-breaker gauge.
	breakers func() (open, halfOpen int)
}

func (s *ResilienceStats) add(field *int64) {
	s.mu.Lock()
	*field++
	s.mu.Unlock()
}

func (s *ResilienceStats) addN(field *int64, n int) {
	s.mu.Lock()
	*field += int64(n)
	s.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (s *ResilienceStats) Snapshot() ResilienceSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// StatsSnapshot implements stats.Source under the "cluster.resilience"
// layer.
func (s *ResilienceStats) StatsSnapshot() stats.Snapshot {
	s.mu.Lock()
	snap := s.snap
	gauge := s.breakers
	s.mu.Unlock()
	m := []stats.Metric{
		{Name: "retries", Value: float64(snap.Retries), Unit: "req"},
		{Name: "failovers", Value: float64(snap.Failovers), Unit: "req"},
		{Name: "breaker_opens", Value: float64(snap.BreakerOpens)},
		{Name: "breaker_half_opens", Value: float64(snap.BreakerHalfOpens)},
		{Name: "breaker_closes", Value: float64(snap.BreakerCloses)},
		{Name: "breaker_rejects", Value: float64(snap.BreakerRejects), Unit: "req"},
		{Name: "shard_errors", Value: float64(snap.ShardErrors)},
	}
	if gauge != nil {
		open, half := gauge()
		m = append(m,
			stats.Metric{Name: "breakers_open", Value: float64(open)},
			stats.Metric{Name: "breakers_half_open", Value: float64(half)},
		)
	}
	return stats.Snapshot{Layer: "cluster.resilience", Metrics: m}
}

// ServerError is an application-level rejection from a server that is
// alive and answering: a malformed or unroutable request (unknown opcode,
// truncated frame, out-of-range or foreign node ID). Such verdicts are
// deterministic per request — every replica would reject identically — so
// the resilience layer treats them as terminal: no retry passes, no
// failover, and no circuit-breaker failure count (the round trip just
// proved the endpoint healthy). Matched with errors.As.
type ServerError struct {
	// Server is the endpoint (or, for in-process transports, the
	// partition) that rejected the request.
	Server int
	Msg    string
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("cluster: server %d: %s", e.Server, e.Msg)
}

// isServerError reports whether err wraps an application-level rejection.
func isServerError(err error) bool {
	var se *ServerError
	return errors.As(err, &se)
}

// ShardError annotates one shard's failure inside a degraded operation.
type ShardError struct {
	// Server is the partition whose shard was lost.
	Server int
	Err    error
}

// PartialError reports the shards lost during a PartialResults operation.
// The accompanying result is layout-complete, but positions owned by the
// listed partitions hold empty neighbor lists / zeroed attributes. It is
// returned *alongside* a non-nil result; use AsPartial to distinguish
// degradation from outright failure.
type PartialError struct {
	Shards []ShardError
	// part maps a vertex to its partition for Lost; the client sets it
	// wherever it builds the error.
	part Partitioner
}

// Lost reports whether v's owning partition is among the lost shards —
// what makes a *PartialError a degrading error under sampler.Store's
// contract. An error built without a partitioner claims every vertex.
func (e *PartialError) Lost(v graph.NodeID) bool {
	if e.part == nil {
		return true
	}
	owner := e.part.Owner(v)
	for _, s := range e.Shards {
		if s.Server == owner {
			return true
		}
	}
	return false
}

// Error implements error.
func (e *PartialError) Error() string {
	msg := fmt.Sprintf("cluster: partial results: %d shard(s) failed", len(e.Shards))
	for _, s := range e.Shards {
		msg += fmt.Sprintf("; partition %d: %v", s.Server, s.Err)
	}
	return msg
}

// Unwrap exposes per-shard errors to errors.Is/errors.As.
func (e *PartialError) Unwrap() []error {
	out := make([]error, len(e.Shards))
	for i, s := range e.Shards {
		out[i] = s.Err
	}
	return out
}

// AsPartial unwraps err as a *PartialError, reporting whether the
// operation degraded rather than failed.
func AsPartial(err error) (*PartialError, bool) {
	if err == nil {
		return nil, false // before pe: an errors.As target escapes
	}
	var pe *PartialError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// invokeFunc performs one raw call against a transport endpoint.
type invokeFunc func(ctx context.Context, endpoint int, req []byte) ([]byte, error)

// resilience executes a client's calls under its ResilienceConfig, routing
// by the client's layout.
type resilience struct {
	cfg   ResilienceConfig
	stats *ResilienceStats
	// tracer, when set, records retry/failover/breaker events tagged with
	// the calling request's trace ID. Nil-safe throughout.
	tracer *obs.Tracer
	// layout is the client's live routing table. Every pass resolves its
	// endpoints from it, so retries of an in-flight call pick up an epoch
	// swap while the pass already running completes against the endpoints
	// it resolved; breakers are kept only for endpoints it holds.
	layout *atomic.Pointer[Layout]

	mu       sync.Mutex
	rng      *rand.Rand
	breakers map[int]*breaker
}

func newResilience(cfg ResilienceConfig, st *ResilienceStats, layout *atomic.Pointer[Layout], tr *obs.Tracer) *resilience {
	cfg.Retry = cfg.Retry.withDefaults()
	cfg.Breaker = cfg.Breaker.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5ca1ab1e
	}
	r := &resilience{
		cfg:      cfg,
		stats:    st,
		tracer:   tr,
		layout:   layout,
		rng:      rand.New(rand.NewSource(seed)),
		breakers: make(map[int]*breaker),
	}
	st.mu.Lock()
	st.breakers = r.breakerGauge
	st.mu.Unlock()
	return r
}

func (r *resilience) breaker(endpoint int) *breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.breakers[endpoint]
	if !ok {
		b = &breaker{cfg: r.cfg.Breaker, st: r.stats, tr: r.tracer, ep: endpoint}
		// Checked under mu, which pruneBreakers takes after the layout is
		// swapped: a departed endpoint's breaker is either pruned after this
		// insert or never inserted, so the map only ever holds live ones.
		if r.layout.Load().Contains(endpoint) {
			r.breakers[endpoint] = b
		}
	}
	return b
}

// pruneBreakers drops the breakers of endpoints the layout no longer holds
// — called after every layout swap so an epoch bump can never carry a
// wedged breaker (open, or half-open with a leaked probe slot) against a
// departed endpoint. An endpoint re-admitted later starts from a fresh
// closed breaker.
func (r *resilience) pruneBreakers() {
	l := r.layout.Load()
	r.mu.Lock()
	for ep := range r.breakers {
		if !l.Contains(ep) {
			delete(r.breakers, ep)
		}
	}
	r.mu.Unlock()
}

func (r *resilience) breakerGauge() (open, halfOpen int) {
	r.mu.Lock()
	brs := make([]*breaker, 0, len(r.breakers))
	for _, b := range r.breakers {
		brs = append(brs, b)
	}
	r.mu.Unlock()
	for _, b := range brs {
		switch b.State() {
		case BreakerOpen:
			open++
		case BreakerHalfOpen:
			halfOpen++
		}
	}
	return open, halfOpen
}

// BreakerState reports the breaker position for one endpoint.
func (r *resilience) BreakerState(endpoint int) BreakerState {
	return r.breaker(endpoint).State()
}

// event records a tracer event tagged with ctx's trace ID (0 when the
// request is untraced). Nil tracers no-op.
func (r *resilience) event(ctx context.Context, kind, note string) {
	if r.tracer == nil {
		return
	}
	id, _ := obs.FromContext(ctx)
	r.tracer.Event(id, kind, note)
}

// sleep waits for the jittered backoff or until ctx is done.
func (r *resilience) sleep(ctx context.Context, d time.Duration) error {
	if j := r.cfg.Retry.Jitter; j > 0 {
		r.mu.Lock()
		f := 1 - j*r.rng.Float64()
		r.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// call executes one partition request in up to attempts passes over the
// partition's serving endpoints (see retry).
func (r *resilience) call(ctx context.Context, attempts, partition int, req []byte, invoke invokeFunc) (resp []byte, err error) {
	err = r.retry(ctx, attempts, "partition", partition, func() (err error) {
		// Resolved per pass, not once per call: a layout swap during the
		// backoff redirects this retry to the new epoch's endpoints.
		resp, err = r.pass(ctx, r.layout.Load().Routable(partition), req, invoke)
		return err
	})
	return resp, err
}

// retry runs pass up to attempts times, separated by exponential backoff
// with jitter, capped at MaxBackoff. ctx wins over every verdict, and a
// *ServerError ends the loop: the rejection is deterministic per request,
// so more passes would only repeat it. what and id name the target in
// errors and retry events ("partition 3"); they are formatted only off the
// success path.
func (r *resilience) retry(ctx context.Context, attempts int, what string, id int, pass func() error) error {
	backoff := r.cfg.Retry.BaseBackoff
	var errs []error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := r.sleep(ctx, backoff); err != nil {
				return err
			}
			r.stats.add(&r.stats.snap.Retries)
			r.event(ctx, "retry", fmt.Sprintf("%s %d attempt %d", what, id, attempt+1))
			backoff = min(2*backoff, r.cfg.Retry.MaxBackoff)
		}
		err := pass()
		if err == nil {
			return nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		if isServerError(err) {
			return fmt.Errorf("cluster: %s %d: %w", what, id, err)
		}
		errs = append(errs, err)
	}
	return fmt.Errorf("cluster: %s %d unavailable after %d attempt(s): %w", what, id, attempts, errors.Join(errs...))
}

// pass tries each endpoint in order, consulting breakers and counting
// failovers past the primary.
func (r *resilience) pass(ctx context.Context, eps []int, req []byte, invoke invokeFunc) ([]byte, error) {
	var errs []error
	for i, ep := range eps {
		br := r.breaker(ep)
		ok, probe := br.Allow()
		if !ok {
			r.stats.add(&r.stats.snap.BreakerRejects)
			r.event(ctx, "breaker_reject", fmt.Sprintf("endpoint %d", ep))
			errs = append(errs, fmt.Errorf("endpoint %d: breaker open", ep))
			continue
		}
		if i > 0 {
			r.stats.add(&r.stats.snap.Failovers)
			r.event(ctx, "failover", fmt.Sprintf("endpoint %d", ep))
		}
		resp, err := invoke(ctx, ep, req)
		if err == nil {
			br.onSuccess()
			return resp, nil
		}
		if isServerError(err) {
			// The endpoint answered: it parsed the request and rejected it.
			// That is a healthy transport — credit the breaker — and a
			// verdict no replica can change, so stop the pass here.
			br.onSuccess()
			return nil, fmt.Errorf("endpoint %d: %w", ep, err)
		}
		if ctx.Err() != nil {
			// Canceled mid-call: no verdict on the endpoint. Release a held
			// half-open probe so a later call can probe again — otherwise
			// the breaker would reject this endpoint forever.
			if probe {
				br.abandon()
			}
			return nil, ctx.Err()
		}
		br.onFailure()
		errs = append(errs, fmt.Errorf("endpoint %d: %w", ep, err))
	}
	return nil, errors.Join(errs...)
}
