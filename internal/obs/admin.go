package obs

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"

	"lsdgnn/internal/stats"
)

// Admin plane: the operational HTTP endpoints every serving process
// exposes on a side port (lsdgnn-server -admin-addr). Deliberately
// dependency-free — Prometheus text exposition comes from internal/stats,
// profiling from net/http/pprof.
//
//	/metrics       Prometheus text exposition of the stats registry;
//	               an Accept header naming application/openmetrics-text
//	               upgrades the response to OpenMetrics with exemplars
//	/stats         the aligned-text report (same data, human-readable)
//	/healthz       liveness: 200 while the process runs
//	/readyz        readiness: 200 while serving, 503 once draining
//	/drain         POST flips the process into draining (503 readiness)
//	/slo           declared objectives with burn rates (WithSLOEndpoint)
//	/trace/{id}    one trace's span timeline (WithTraceEndpoint)
//	/debug/pprof/  CPU/heap/goroutine profiles

// Health tracks the process's readiness for load-balancer checks. The zero
// value is ready (serving); SetDraining flips /readyz to 503 so rotation
// out happens before the listener closes.
type Health struct {
	draining atomic.Bool
	hook     atomic.Pointer[func()]
}

// OnDrain registers fn to run on each serving→draining transition, before
// SetDraining returns. Servers hook their data plane here — e.g. flipping
// the TCP listener into connection-drain mode — so readiness and admission
// flip together, in that order, regardless of whether the drain came from
// a signal or the admin /drain endpoint.
func (h *Health) OnDrain(fn func()) { h.hook.Store(&fn) }

// SetDraining marks the process as draining (true) or serving (false). The
// first flip to draining runs the OnDrain hook.
func (h *Health) SetDraining(v bool) {
	was := h.draining.Swap(v)
	if v && !was {
		if fn := h.hook.Load(); fn != nil {
			(*fn)()
		}
	}
}

// Draining reports whether the process is draining.
func (h *Health) Draining() bool { return h.draining.Load() }

// AdminOption extends the admin mux with optional endpoints.
type AdminOption func(mux *http.ServeMux)

// WithSLOEndpoint mounts /slo: the tracker's declared objectives with
// their burn rates, as JSON when the request asks for it (?format=json or
// an Accept header naming application/json), aligned text otherwise.
func WithSLOEndpoint(t *stats.SLOTracker) AdminOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
			snaps := t.Snapshots()
			if r.URL.Query().Get("format") == "json" ||
				strings.Contains(r.Header.Get("Accept"), "application/json") {
				w.Header().Set("Content-Type", "application/json")
				_ = json.NewEncoder(w).Encode(snaps)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, s := range snaps {
				status := "ok"
				if s.Breach {
					status = "BREACH"
				}
				fmt.Fprintf(w, "%-20s target=%.4g good=%d bad=%d err_ratio=%.3g burn_fast=%.3g burn_slow=%.3g %s\n",
					s.Name, s.Target, s.Good, s.Bad, s.ErrorRatio, s.BurnFast, s.BurnSlow, status)
			}
		})
	}
}

// WithTraceEndpoint mounts /trace/{id}: one trace's retained spans in
// start order, as JSON — the hop-by-hop timeline behind an exemplar's
// trace_id. 404 when the ring no longer holds the trace.
func WithTraceEndpoint(t *Tracer) AdminOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
			raw := strings.TrimPrefix(r.URL.Path, "/trace/")
			id, err := strconv.ParseUint(raw, 16, 64)
			if err != nil || id == 0 {
				http.Error(w, "trace id must be hex", http.StatusBadRequest)
				return
			}
			spans := t.TraceSpans(TraceID(id))
			if len(spans) == 0 {
				http.Error(w, "trace not retained", http.StatusNotFound)
				return
			}
			type spanJSON struct {
				Hop     string  `json:"hop"`
				Note    string  `json:"note,omitempty"`
				StartNs int64   `json:"start_ns"`
				DurSec  float64 `json:"dur_sec"`
				Err     bool    `json:"err,omitempty"`
			}
			out := struct {
				Trace string     `json:"trace_id"`
				Spans []spanJSON `json:"spans"`
			}{Trace: fmt.Sprintf("%016x", id)}
			for _, s := range spans {
				out.Spans = append(out.Spans, spanJSON{
					Hop: s.Hop, Note: s.Note, StartNs: s.Start.UnixNano(),
					DurSec: s.Dur.Seconds(), Err: s.Err,
				})
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(out)
		})
	}
}

// WithHandler mounts an arbitrary handler on the admin mux — runtime
// control endpoints (chaos injection, tuning knobs) ride the admin plane
// without the obs package knowing their shape.
func WithHandler(pattern string, h http.Handler) AdminOption {
	return func(mux *http.ServeMux) { mux.Handle(pattern, h) }
}

// WithTenantsEndpoint mounts /tenants: the serving gateway's per-tenant
// view (config + live admission counters) as JSON. snapshot is called per
// request so the rows are always current.
func WithTenantsEndpoint(snapshot func() any) AdminOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/tenants", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(snapshot())
		})
	}
}

// RequireKey wraps an admin handler with API-key authentication: requests
// must carry the key in an X-API-Key header, an "Authorization: Bearer"
// header, or a ?key= query parameter. Paths listed in open (and their
// subtrees) stay unauthenticated — load-balancer health checks must keep
// working without credentials. An empty key returns h unchanged.
func RequireKey(h http.Handler, key string, open ...string) http.Handler {
	if key == "" {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, p := range open {
			if r.URL.Path == p || strings.HasPrefix(r.URL.Path, p+"/") {
				h.ServeHTTP(w, r)
				return
			}
		}
		got := r.Header.Get("X-API-Key")
		if got == "" {
			got = strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		}
		if got == "" {
			got = r.URL.Query().Get("key")
		}
		if subtle.ConstantTimeCompare([]byte(got), []byte(key)) != 1 {
			http.Error(w, "401 unauthorized: admin plane requires an api key", http.StatusUnauthorized)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// openMetricsContentType is what an OpenMetrics response declares (and
// what a scraper's Accept header names to request it).
const openMetricsContentType = "application/openmetrics-text"

// NewAdminMux assembles the admin-plane handler over a stats registry and
// a health tracker. Either may be nil: a nil registry serves empty metric
// sets, a nil health is always ready.
func NewAdminMux(reg *stats.Registry, health *Health, opts ...AdminOption) *http.ServeMux {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.Header.Get("Accept"), openMetricsContentType) {
			w.Header().Set("Content-Type", openMetricsContentType+"; version=1.0.0; charset=utf-8")
			if _, err := reg.WriteOpenMetrics(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if _, err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := reg.WriteTo(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if health != nil && health.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if health == nil {
			http.Error(w, "no health tracker", http.StatusServiceUnavailable)
			return
		}
		health.SetDraining(true)
		fmt.Fprintln(w, "draining")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, opt := range opts {
		opt(mux)
	}
	return mux
}

// ServeAdmin starts the admin plane on addr and returns the running
// server; callers Close (or Shutdown) it on exit. Errors from the listener
// after startup are ignored — the admin plane must never take the serving
// path down.
func ServeAdmin(addr string, reg *stats.Registry, health *Health, opts ...AdminOption) (*http.Server, string, error) {
	return ServeAdminHandler(addr, NewAdminMux(reg, health, opts...))
}

// ServeAdminHandler is ServeAdmin for a caller-assembled handler — e.g. an
// admin mux wrapped with RequireKey.
func ServeAdminHandler(addr string, h http.Handler) (*http.Server, string, error) {
	srv := &http.Server{Addr: addr, Handler: h}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
