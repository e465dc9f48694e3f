package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lsdgnn/internal/stats"
)

func adminFixture() (*http.ServeMux, *Health) {
	reg := stats.NewRegistry()
	lat := stats.NewLatency("cluster.batch")
	lat.Observe(3 * time.Millisecond)
	reg.Register(lat)
	reg.Register(stats.Func(func() stats.Snapshot {
		return stats.Snapshot{Layer: "cluster.resilience", Metrics: []stats.Metric{
			{Name: "retries", Value: 7, Unit: "req"},
		}}
	}))
	health := &Health{}
	return NewAdminMux(reg, health), health
}

func get(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

func TestAdminMetrics(t *testing.T) {
	mux, _ := adminFixture()
	code, body := get(t, mux, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"# TYPE lsdgnn_cluster_batch_latency_seconds histogram",
		"lsdgnn_cluster_batch_latency_seconds_bucket{le=",
		"lsdgnn_cluster_batch_latency_seconds_count 1",
		"lsdgnn_cluster_resilience_retries 7",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestAdminStatsReport(t *testing.T) {
	mux, _ := adminFixture()
	code, body := get(t, mux, "/stats")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"[cluster.batch]", "latency", "p99="} {
		if !strings.Contains(body, want) {
			t.Fatalf("/stats missing %q:\n%s", want, body)
		}
	}
}

func TestAdminHealthDraining(t *testing.T) {
	mux, health := adminFixture()
	if code, body := get(t, mux, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, mux, "/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz = %d %q", code, body)
	}

	// A draining server must fail readiness (load balancers rotate it out)
	// while staying alive for in-flight work.
	health.SetDraining(true)
	if code, body := get(t, mux, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining /readyz = %d %q", code, body)
	}
	if code, _ := get(t, mux, "/healthz"); code != http.StatusOK {
		t.Fatalf("draining /healthz = %d", code)
	}
	health.SetDraining(false)
	if code, _ := get(t, mux, "/readyz"); code != http.StatusOK {
		t.Fatalf("recovered /readyz = %d", code)
	}
}

func TestAdminPprof(t *testing.T) {
	mux, _ := adminFixture()
	code, body := get(t, mux, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

func TestServeAdmin(t *testing.T) {
	srv, addr, err := ServeAdmin("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// nil registry still serves an empty, valid exposition.
	resp2, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp2.StatusCode)
	}
}

func post(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", path, nil))
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

// TestAdminDrainEndpoint: POST /drain flips the process into draining —
// firing the OnDrain hook exactly once, so the data plane (e.g. the TCP
// listener) turns away new connections at the same instant /readyz goes
// 503 — while non-POST methods and hookless repeats stay inert.
func TestAdminDrainEndpoint(t *testing.T) {
	mux, health := adminFixture()
	fired := 0
	health.OnDrain(func() { fired++ })

	if code, _ := get(t, mux, "/drain"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /drain = %d, want 405", code)
	}
	if fired != 0 || health.Draining() {
		t.Fatal("GET /drain had side effects")
	}

	code, body := post(t, mux, "/drain")
	if code != http.StatusOK || !strings.Contains(body, "draining") {
		t.Fatalf("POST /drain = %d %q", code, body)
	}
	if fired != 1 {
		t.Fatalf("OnDrain fired %d times, want 1", fired)
	}
	if code, _ := get(t, mux, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", code)
	}
	// Draining is idempotent: a second POST must not re-fire the hook.
	if code, _ := post(t, mux, "/drain"); code != http.StatusOK {
		t.Fatalf("second POST /drain = %d", code)
	}
	if fired != 1 {
		t.Fatalf("OnDrain re-fired on an already-draining process (%d)", fired)
	}
	// Un-drain and drain again: the serving→draining edge fires the hook.
	health.SetDraining(false)
	health.SetDraining(true)
	if fired != 2 {
		t.Fatalf("OnDrain fired %d times after re-drain, want 2", fired)
	}
}

func TestAdminDrainWithoutHealth(t *testing.T) {
	mux := NewAdminMux(nil, nil)
	if code, _ := post(t, mux, "/drain"); code != http.StatusServiceUnavailable {
		t.Fatalf("POST /drain with no health tracker = %d, want 503", code)
	}
}

func TestAdminSLOEndpoint(t *testing.T) {
	tr := stats.NewSLOTracker()
	s := tr.Objective(stats.Objective{Name: "server_latency", Threshold: 5 * time.Millisecond})
	s.ObserveLatency(time.Millisecond, false)
	s.ObserveLatency(50*time.Millisecond, false)
	mux := NewAdminMux(nil, nil, WithSLOEndpoint(tr))

	code, body := get(t, mux, "/slo")
	if code != 200 || !strings.Contains(body, "server_latency") || !strings.Contains(body, "burn_fast") {
		t.Fatalf("/slo text = %d:\n%s", code, body)
	}
	code, body = get(t, mux, "/slo?format=json")
	if code != 200 {
		t.Fatalf("/slo json = %d", code)
	}
	var snaps []stats.SLOSnapshot
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("bad /slo JSON: %v\n%s", err, body)
	}
	if len(snaps) != 1 || snaps[0].Name != "server_latency" || snaps[0].Good != 1 || snaps[0].Bad != 1 {
		t.Fatalf("snaps = %+v", snaps)
	}
}

func TestAdminTraceEndpoint(t *testing.T) {
	tracer := NewTracer()
	id := NewTraceID()
	start := time.Now()
	tracer.Observe(id, HopServer, start, 2*time.Millisecond)
	tracer.ObserveErr(id, HopRPC, "attempt 2", start.Add(time.Millisecond), time.Millisecond, true)
	mux := NewAdminMux(nil, nil, WithTraceEndpoint(tracer))

	code, body := get(t, mux, fmt.Sprintf("/trace/%016x", uint64(id)))
	if code != 200 {
		t.Fatalf("/trace = %d:\n%s", code, body)
	}
	var out struct {
		Trace string `json:"trace_id"`
		Spans []struct {
			Hop string  `json:"hop"`
			Dur float64 `json:"dur_sec"`
			Err bool    `json:"err"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad /trace JSON: %v\n%s", err, body)
	}
	if len(out.Spans) != 2 || out.Spans[0].Hop != HopServer || !out.Spans[1].Err {
		t.Fatalf("spans = %+v", out.Spans)
	}
	if code, _ := get(t, mux, "/trace/ffffffffffffffff"); code != 404 {
		t.Fatalf("unknown trace = %d, want 404", code)
	}
	if code, _ := get(t, mux, "/trace/not-hex"); code != 400 {
		t.Fatalf("bad trace id = %d, want 400", code)
	}
}

func TestAdminMetricsOpenMetricsNegotiation(t *testing.T) {
	reg := stats.NewRegistry()
	lat := stats.NewLatency("cluster.batch")
	lat.ObserveTrace(3*time.Millisecond, 0xbeef)
	reg.Register(lat)
	mux := NewAdminMux(reg, nil)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	mux.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	if ct := rec.Result().Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(string(body), `trace_id="000000000000beef"`) ||
		!strings.HasSuffix(string(body), "# EOF\n") {
		t.Fatalf("OpenMetrics body missing exemplar or EOF:\n%s", body)
	}
	// A plain scrape stays on the classic format.
	if _, body := get(t, mux, "/metrics"); strings.Contains(body, "trace_id") {
		t.Fatal("classic scrape leaked exemplars")
	}
}

func TestAdminWithHandler(t *testing.T) {
	hit := false
	mux := NewAdminMux(nil, nil, WithHandler("/chaos", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { hit = true })))
	if code, _ := get(t, mux, "/chaos"); code != 200 || !hit {
		t.Fatalf("custom handler not mounted (code %d, hit %v)", code, hit)
	}
}

func TestRequireKey(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "ok") })
	h := RequireKey(ok, "s3cret", "/healthz")
	code := func(h http.Handler, path string, hdr ...string) int {
		req := httptest.NewRequest("GET", path, nil)
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	for _, c := range []struct {
		name, path string
		hdr        []string
		want       int
	}{
		{"open path", "/healthz", nil, 200},
		{"open subtree", "/healthz/deep", nil, 200},
		{"no key", "/metrics", nil, 401},
		{"X-API-Key", "/metrics", []string{"X-API-Key", "s3cret"}, 200},
		{"Bearer", "/metrics", []string{"Authorization", "Bearer s3cret"}, 200},
		{"query", "/metrics?key=s3cret", nil, 200},
		{"wrong key", "/metrics", []string{"X-API-Key", "s3creT"}, 401},
		{"wrong length", "/metrics", []string{"X-API-Key", "s3cret!"}, 401},
		{"prefix of key", "/metrics?key=s3c", nil, 401},
	} {
		if got := code(h, c.path, c.hdr...); got != c.want {
			t.Errorf("%s: %s → %d, want %d", c.name, c.path, got, c.want)
		}
	}
	if got := code(RequireKey(ok, ""), "/metrics"); got != 200 {
		t.Errorf("empty configured key: %d, want 200", got)
	}
}
