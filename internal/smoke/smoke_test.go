//go:build smoke

package smoke

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
	"lsdgnn/internal/workload"
)

var bin string // the directory TestSmoke builds the binaries into

// scfg is what every burst samples: lsdgnn-probe's defaults.
var scfg = sampler.Config{Fanouts: []int{10, 10}, NegativeRate: 4, Method: sampler.Streaming, FetchAttrs: true, Seed: 1}

func TestSmoke(t *testing.T) {
	bin = t.TempDir()
	out, err := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"lsdgnn/cmd/lsdgnn-server", "lsdgnn/cmd/lsdgnn-probe", "lsdgnn/cmd/lsdgnn-shard").CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	// wire reads the process-wide buffer-pool counters, so it runs alone.
	t.Run("wire", testWire)
	for name, fn := range map[string]func(*testing.T){
		"metrics": testMetrics, "pipeline": testPipeline, "reshard": testReshard,
		"slo": testSLO, "gateway": testGateway, "store": testStore,
	} {
		t.Run(name, func(t *testing.T) { t.Parallel(); fn(t) })
	}
}

// bound matches the server's log lines naming its bound addresses.
var bound = regexp.MustCompile(`msg=("admin plane up"|serving) .*\baddr=(\S+)`)

// server is one lsdgnn-server process.
type server struct {
	cmd         *exec.Cmd
	addr, admin string // bound serving and admin-plane addresses
	key         string // admin-plane API key sent with every request
	mu          sync.Mutex
	log         strings.Builder // stderr so far
	eof         chan struct{}   // closed once stderr is drained
}

// boot starts lsdgnn-server on OS-assigned ports with args appended and
// returns once it logs that it is serving. Cleanup kills the process.
func boot(t *testing.T, args ...string) *server {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, "lsdgnn-server"), append([]string{
		"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0", "-log-level", "info"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	s := &server{cmd: cmd, eof: make(chan struct{})}
	// Both fail harmlessly when the subtest already reaped the process.
	t.Cleanup(func() { _ = cmd.Process.Kill(); _ = s.wait() })
	up := make(chan struct{})
	go func() {
		defer close(s.eof)
		// The admin plane comes up first: both addresses are set when up closes.
		for sc := bufio.NewScanner(stderr); sc.Scan(); {
			line := sc.Text()
			s.mu.Lock()
			s.log.WriteString(line + "\n")
			s.mu.Unlock()
			if m := bound.FindStringSubmatch(line); m != nil && m[1] == "serving" {
				s.addr = m[2]
				close(up)
			} else if m != nil {
				s.admin = m[2]
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // past a line too long to scan
	}()
	select {
	case <-up:
	case <-s.eof:
		t.Fatalf("server exited before serving:\n%s", s.logs())
	}
	return s
}

// wait reaps the process once its stderr is drained; it returns the exit status.
func (s *server) wait() error {
	<-s.eof
	return s.cmd.Wait()
}

func (s *server) logs() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.String()
}

// expect sends method path to the admin plane, accepting the given media
// types, and returns the body. It fails t unless the status is want; want 0
// takes any status.
func (s *server) expect(t *testing.T, method, path string, want int, accept ...string) string {
	t.Helper()
	req, err := http.NewRequest(method, "http://"+s.admin+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", s.key) // empty reads as no key
	req.Header.Set("Accept", strings.Join(accept, ", "))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", method, path, err, s.logs())
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || (want != 0 && resp.StatusCode != want) {
		t.Fatalf("%s %s = %d (%v), want %d: %s", method, path, resp.StatusCode, err, want, body)
	}
	return string(body)
}

// scrape parses /metrics into series → value, labels part of the name.
func (s *server) scrape(t *testing.T) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, line := range strings.Split(s.expect(t, "GET", "/metrics", http.StatusOK), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m
}

// values flattens a client-side stats snapshot into scrape's shape.
func values(snap stats.Snapshot) map[string]float64 {
	m := map[string]float64{}
	for _, x := range snap.Metrics {
		m[x.Name] = x.Value
	}
	return m
}

// series fails t unless m carries every prefix+name, bare or labelled, and
// returns the last one's value (any member's, for a labelled family).
func series(t *testing.T, m map[string]float64, prefix string, names ...string) (v float64) {
	t.Helper()
	for _, n := range names {
		var ok bool
		v, ok = m[prefix+n]
		for k, kv := range m {
			if !ok && strings.HasPrefix(k, prefix+n+"{") {
				v, ok = kv, true
			}
		}
		if !ok {
			t.Fatalf("missing series %s%s", prefix, n)
		}
	}
	return v
}

// at fails t unless every prefix+name reads want.
func at(t *testing.T, m map[string]float64, want float64, prefix string, names ...string) {
	t.Helper()
	for _, n := range names {
		if v := series(t, m, prefix, n); v != want {
			t.Fatalf("%s%s = %g, want %g", prefix, n, v, want)
		}
	}
}

// moved fails t unless every prefix+name reads above zero.
func moved(t *testing.T, m map[string]float64, prefix string, names ...string) {
	t.Helper()
	for _, n := range names {
		if v := series(t, m, prefix, n); v <= 0 {
			t.Fatalf("%s%s = %g, want > 0", prefix, n, v)
		}
	}
}

// contains fails t unless text, named what, holds every want.
func contains(t *testing.T, what, text string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(text, w) {
			t.Fatalf("%s lacks %q:\n%s", what, w, text)
		}
	}
}

// client bootstraps a traced client over the servers at addrs, in
// UniformLayout order with replicas per partition. Tracing matters: only a
// traced frame names a trace ID for the server's exemplars.
func client(t *testing.T, addrs []string, replicas int, opts ...cluster.ClientOption) *cluster.Client {
	t.Helper()
	tr := cluster.DialTCP(addrs, 2)
	t.Cleanup(func() { tr.Close() })
	parts := len(addrs) / replicas
	opts = append(opts, cluster.WithTracer(obs.NewTracer()), cluster.WithLayout(cluster.UniformLayout(parts, replicas)))
	if replicas > 1 {
		opts = append(opts, cluster.WithResilience(cluster.DefaultResilienceConfig()))
	}
	c, err := cluster.NewClientContext(context.Background(), tr, cluster.HashPartitioner{N: parts}, -1, opts...)
	if err != nil {
		t.Fatalf("bootstrap %v: %v", addrs, err)
	}
	return c
}

// drive samples batches random batches of size roots over c, workers at a
// time, through ex (a default executor when nil); it returns the first error.
func drive(c *cluster.Client, ex *pipeline.Executor, batches, size, workers int) error {
	if ex == nil {
		ex = pipeline.New(c, scfg, pipeline.Config{})
	}
	src := workload.NewBatchSource(c.NumNodes(), size, scfg.Seed)
	work := make(chan []graph.NodeID, batches)
	for range batches {
		work <- append([]graph.NodeID(nil), src.Next()...)
	}
	close(work)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for roots := range work {
				if _, err := ex.Sample(context.Background(), roots); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// burst is drive, failing t on error.
func burst(t *testing.T, c *cluster.Client, ex *pipeline.Executor, batches, size, workers int) {
	t.Helper()
	if err := drive(c, ex, batches, size, workers); err != nil {
		t.Fatalf("burst of %d×%d roots: %v", batches, size, err)
	}
}

// run execs a built binary and returns its output, failing t unless it exits 0.
func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(filepath.Join(bin, name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

// testMetrics: admin-plane series and endpoints, and drain-aware health.
func testMetrics(t *testing.T) {
	s := boot(t)
	series(t, s.scrape(t), "lsdgnn_cluster_", "server_latency_seconds_bucket", "server_latency_seconds_count",
		"tcp_open_conns", "resilience_retries", "resilience_breaker_opens")
	for _, path := range []string{"/healthz", "/stats", "/debug/pprof/"} {
		s.expect(t, "GET", path, http.StatusOK)
	}
	// Draining turns readiness away from a live process; SIGINT then exits.
	s.expect(t, "POST", "/drain", http.StatusOK)
	s.expect(t, "GET", "/readyz", http.StatusServiceUnavailable)
	s.expect(t, "GET", "/healthz", http.StatusOK)
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := s.wait(); err != nil {
		t.Fatalf("exit after SIGINT: %v\n%s", err, s.logs())
	}
	contains(t, "server log", s.logs(), `msg="shutting down"`)
}

// testWire: sectioned frames on the server, pooled buffers on the client.
func testWire(t *testing.T) {
	s := boot(t)
	m := s.scrape(t)
	series(t, m, "lsdgnn_cluster_wire_", "bytes_total", "bytes_in", "bytes_out", "frames_total", "packed_frames", "pack_ratio")
	series(t, m, "lsdgnn_mem_", "scratch_outstanding")
	c := client(t, []string{s.addr}, 1)
	puts := values(mem.Snapshot())["pool_puts"]
	burst(t, c, nil, 8, 48, 4)
	moved(t, s.scrape(t), "lsdgnn_cluster_wire_", "bytes_total", "packed_frames")
	// The client's own pools: every scratch buffer back, puts moved.
	if out, after := mem.Outstanding(), values(mem.Snapshot())["pool_puts"]; out != 0 || after <= puts {
		t.Fatalf("%d scratch buffers outstanding, pool puts %g → %g after the burst", out, puts, after)
	}
	contains(t, "lsdgnn-probe output", run(t, "lsdgnn-probe", "-addrs", s.addr, "-batches", "8", "-batch-size", "48"),
		"probe: OK", fmt.Sprintf("protocol v%d", cluster.ProtoVersion))
}

// testPipeline: executor series, and a window small enough to stall.
func testPipeline(t *testing.T) {
	s := boot(t)
	series(t, s.scrape(t), "lsdgnn_pipeline_", "inflight", "inflight_peak", "issued_requests", "retired_requests",
		"window_full_stalls", "degraded_roots", "batches")
	c := client(t, []string{s.addr}, 1)
	// One 48-root hop asks for far more than 64 node-requests.
	ex := pipeline.New(c, scfg, pipeline.Config{Window: 64})
	burst(t, c, ex, 8, 48, 4)
	p := values(ex.Stats().StatsSnapshot())
	moved(t, p, "", "issued_requests", "window_full_stalls")
	at(t, p, p["issued_requests"], "", "retired_requests")
	at(t, p, 8, "", "batches")
}

// testReshard: one replica of a 2×2 tier drains mid-burst.
func testReshard(t *testing.T) {
	// UniformLayout order: endpoint r*2+p is replica r of partition p.
	srvs, addrs := make([]*server, 4), make([]string, 4)
	for ep := range srvs {
		srvs[ep] = boot(t, "-partitions", "2", "-partition", strconv.Itoa(ep%2), "-replica", strconv.Itoa(ep/2))
		addrs[ep] = srvs[ep].addr
	}
	at(t, srvs[2].scrape(t), 0, "lsdgnn_cluster_layout_", "epoch", "swaps", "replica_joins", "replica_drains",
		"migrations", "dual_home_requests", "probe_failures")
	c := client(t, addrs, 2)
	// Endpoint 2 leaves mid-burst; endpoint 0 keeps serving partition 0.
	drained := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		drained <- c.DrainReplica(context.Background(), 0, 2)
	}()
	burst(t, c, nil, 12, 48, 4)
	if err := <-drained; err != nil {
		t.Fatalf("drain endpoint 2: %v", err)
	}
	lay := values(c.Lay.StatsSnapshot())
	moved(t, lay, "", "replica_drains")
	if lay["epoch"] <= 1 || c.Layout().Contains(2) {
		t.Fatalf("layout at epoch %g, holding endpoint 2: %v; want epoch > 1 without it", lay["epoch"], c.Layout().Contains(2))
	}
	srvs[2].expect(t, "POST", "/drain", http.StatusOK)
	srvs[2].expect(t, "GET", "/readyz", http.StatusServiceUnavailable)
}

// testSLO: a latency spike flips the fast burn and shows in the windowed
// histogram, not the cumulative one; an exemplar leads to its trace.
func testSLO(t *testing.T) {
	// Normal handling is far inside a 100ms budget, the 300ms spike far outside.
	s := boot(t, "-slo-threshold", "100ms")
	m := s.scrape(t)
	at(t, m, 0, "lsdgnn_slo_server_", "latency_good_total", "latency_burn_fast", "errors_good_total")
	series(t, m, "lsdgnn_runtime_", "goroutines", "heap_alloc", "gc_pause_total", "mem_outstanding")
	c := client(t, []string{s.addr}, 1)
	slos := stats.NewSLOTracker()
	ex := pipeline.New(c, scfg, pipeline.Config{})
	ex.SetSLO(slos.Objective(stats.Objective{Name: "probe_batch", Threshold: 50 * time.Millisecond}))
	burst(t, c, ex, 32, 32, 4)
	m = s.scrape(t)
	moved(t, m, "lsdgnn_slo_server_", "latency_good_total")
	at(t, m, 0, "lsdgnn_slo_server_", "latency_burn_fast")
	moved(t, values(slos.StatsSnapshot()), "", "probe_batch_good_total")

	// Let the clean burst leave the 10s window, so it holds only the spike.
	const win = "lsdgnn_cluster_serving_latency_window_10s_seconds_"
	for deadline := time.Now().Add(20 * time.Second); series(t, s.scrape(t), win, "count") > 0; time.Sleep(250 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%scount did not drain to 0 in 20s", win)
		}
	}
	s.expect(t, "POST", "/chaos?spike_rate=0.8&spike=300ms", http.StatusOK)
	burst(t, c, nil, 4, 16, 4)
	s.expect(t, "POST", "/chaos", http.StatusOK)
	m = s.scrape(t)
	if b := series(t, m, "lsdgnn_slo_server_", "latency_burn_fast"); b <= 1 {
		t.Fatalf("burn_fast %g after the spike, want > 1", b)
	}
	cum := series(t, m, "lsdgnn_cluster_serving_latency_seconds_", "sum") / series(t, m, "lsdgnn_cluster_serving_latency_seconds_", "count")
	// !(w >= …) also fails on the NaN of an empty window.
	if w := series(t, m, win, "sum") / series(t, m, win, "count"); !(w >= 5*cum) {
		t.Fatalf("windowed average %gs not 5× the cumulative %gs", w, cum)
	}

	contains(t, "/slo", s.expect(t, "GET", "/slo", http.StatusOK), "server_latency")
	contains(t, "/slo JSON", s.expect(t, "GET", "/slo?format=json", http.StatusOK), `"burn_fast"`)
	om := s.expect(t, "GET", "/metrics", http.StatusOK, "application/openmetrics-text")
	if !strings.HasSuffix(strings.TrimSpace(om), "# EOF") {
		t.Fatal("OpenMetrics scrape does not end in # EOF")
	}
	// The span ring may have dropped older traces; one exemplar must resolve.
	ids := regexp.MustCompile(`trace_id="([0-9a-f]+)"`).FindAllStringSubmatch(om, -1)
	for _, id := range ids {
		if strings.Contains(s.expect(t, "GET", "/trace/"+id[1], 0), `"spans"`) {
			return
		}
	}
	t.Fatalf("none of %d exemplar trace_ids resolved via /trace/{id}", len(ids))
}

// testGateway: the key-gated admin plane, tenant keys and rate contracts.
func testGateway(t *testing.T) {
	// The heavy tenant's 2 frames/s, burst 6, fits no burst; light is unlimited.
	const adminKey = "smoke-admin-key"
	s := boot(t, "-admin-key", adminKey, "-gateway-inflight", "64", "-tenants",
		"name=light,key=light-smoke-key,weight=4;name=heavy,key=heavy-smoke-key,rate=2,burst=6,weight=1")
	s.expect(t, "GET", "/metrics", http.StatusUnauthorized)
	s.expect(t, "GET", "/metrics?key=wrong", http.StatusUnauthorized)
	s.key = adminKey
	at(t, s.scrape(t), 0, "lsdgnn_gateway_", "admitted", "auth_failures", "ratelimited", "shed", "light_admitted",
		"heavy_ratelimited")

	addrs := []string{s.addr}
	tr := cluster.DialTCP(addrs, 1)
	defer tr.Close()
	var se *cluster.ServerError
	_, err := cluster.NewClientContext(context.Background(), tr, cluster.HashPartitioner{N: 1}, -1, cluster.WithAPIKey("wrong-key"))
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "401") {
		t.Fatalf("bootstrap with a bad key: %v, want a 401 *cluster.ServerError", err)
	}
	moved(t, s.scrape(t), "lsdgnn_gateway_", "auth_failures")
	burst(t, client(t, addrs, 1, cluster.WithAPIKey("light-smoke-key")), nil, 8, 16, 4)
	if err := drive(client(t, addrs, 1, cluster.WithAPIKey("heavy-smoke-key")), nil, 32, 32, 8); err == nil {
		t.Fatal("the heavy tenant's greedy burst was never rejected")
	}
	m := s.scrape(t)
	if rl, shed := series(t, m, "lsdgnn_gateway_heavy_", "ratelimited"), series(t, m, "lsdgnn_gateway_heavy_", "shed"); rl+shed <= 0 {
		t.Fatal("the heavy tenant's burst moved neither ratelimited nor shed")
	}
	moved(t, m, "lsdgnn_gateway_light_", "admitted")
	at(t, m, 0, "lsdgnn_gateway_light_", "ratelimited", "shed")
	contains(t, "/tenants", s.expect(t, "GET", "/tenants", http.StatusOK), `"light"`, `"heavy"`, `"ratelimited"`)
}

// testStore: bulk-loaded segments served under a budget; WAL replay after kill -9.
func testStore(t *testing.T) {
	dir := t.TempDir()
	run(t, "lsdgnn-shard", "-mode", "bulk-load", "-dataset", "ss", "-partitions", "1", "-out", dir)
	store := filepath.Join(dir, "shard-0")
	for _, f := range []string{"CURRENT", "seg-1.lsds"} {
		if _, err := os.Stat(filepath.Join(store, f)); err != nil {
			t.Fatalf("bulk-load: %v", err)
		}
	}
	args := []string{"-partitions", "1", "-partition", "0", "-store-path", store, "-store-budget", strconv.Itoa(1 << 20)}
	s := boot(t, args...)
	m := s.scrape(t)
	series(t, m, "lsdgnn_store_", "attr_reads", "cache_hits", "cache_misses", "resident_bytes", "wal_appends",
		"wal_replayed_records", "segment_bytes")
	at(t, m, 0, "lsdgnn_store_", "neighbor_reads")
	at(t, m, 1, "lsdgnn_store_", "generation")
	burst(t, client(t, []string{s.addr}, 1), nil, 8, 48, 4)
	moved(t, s.scrape(t), "lsdgnn_store_", "neighbor_reads", "cache_misses")

	// Crash drill: the restart must replay exactly the 50 records appended.
	if err := s.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = s.wait() // the exit status is the kill
	run(t, "lsdgnn-shard", "-mode", "ingest", "-store", store, "-edges", "50", "-sync")
	s = boot(t, args...)
	at(t, s.scrape(t), 50, "lsdgnn_store_", "wal_replayed_records")
	burst(t, client(t, []string{s.addr}, 1), nil, 2, 32, 4)
}
