// Command lsdgnn-server runs one graph-partition server over TCP — the
// storage-node role of the distributed in-memory graph store. A worker
// (see examples/distributed) connects with cluster.DialTCP and issues
// batched neighbor/attribute requests.
//
// Example (4-partition cluster on one machine):
//
//	lsdgnn-server -addr :7001 -partition 0 -partitions 4 &
//	lsdgnn-server -addr :7002 -partition 1 -partitions 4 &
//	...
//
// Replicas serve the same partition from another address so clients
// routing by a replicated layout (cluster.WithLayout) can fail over, and
// the chaos flags let an operator rehearse exactly that:
//
//	lsdgnn-server -addr :7011 -partition 0 -partitions 4 -replica 1 &
//	lsdgnn-server -addr :7001 -partition 0 -partitions 4 -chaos-error-rate 0.2 &
//
// With -store-path set, the partition serves from a persistent mmap
// CSR + WAL store instead of process memory — the larger-than-RAM
// storage-node mode. On first boot the server bulk-loads its shard into
// the directory (or point it at a directory written by
// lsdgnn-shard bulk-load); subsequent boots replay the WAL and serve
// without rebuilding the dataset:
//
//	lsdgnn-server -addr :7001 -partition 0 -partitions 4 \
//	    -store-path /data/shard-0 -store-budget 268435456
//
// With -admin-addr set, the server also exposes the operational plane:
// /metrics (Prometheus; OpenMetrics with exemplars when the Accept header
// asks), /stats (text report), /healthz, /readyz (drain-aware), /slo
// (objective burn rates), /trace/{id} (span timeline behind an exemplar),
// /chaos (POST: rearm fault injection at runtime), and /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/gateway"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/stats"
	"lsdgnn/internal/store"
	"lsdgnn/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7001", "listen address")
	adminAddr := flag.String("admin-addr", "", "admin-plane listen address (/metrics, /healthz, /readyz, /stats, /debug/pprof); empty disables")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error (debug logs every request with its trace ID)")
	dataset := flag.String("dataset", "ss", "Table 2 dataset to serve (scaled)")
	graphFile := flag.String("graph", "", "serve a graph saved with graph.Save instead of generating one")
	partition := flag.Int("partition", 0, "this server's partition index")
	partitions := flag.Int("partitions", 1, "total partition count")
	replica := flag.Int("replica", 0, "replica index of this partition (0 = primary); replicas serve identical data from another address so clients can fail over (cluster.WithLayout)")
	seed := flag.Int64("seed", 42, "graph generation seed (must match peers)")
	drain := flag.Duration("drain", 30*time.Second, "max time to drain in-flight requests on shutdown")
	chaosErr := flag.Float64("chaos-error-rate", 0, "inject request failures with this probability, for chaos-testing client retry/failover [0,1]")
	chaosHang := flag.Float64("chaos-hang-rate", 0, "inject requests that stall until the client deadline with this probability [0,1]")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the injected fault sequence")
	sloThreshold := flag.Duration("slo-threshold", 5*time.Millisecond, "server_latency objective: a request is good iff handled within this budget")
	sloTarget := flag.Float64("slo-target", 0.999, "promised good fraction for both objectives (0,1)")
	spanLog := flag.Int("trace-spans", obs.DefaultSpanLog, "completed spans retained for /trace lookups")
	traceSample := flag.Int("trace-sample", 1, "keep 1-in-n traces in the span log (histograms always record)")
	storePath := flag.String("store-path", "", "serve this partition from a persistent mmap CSR + WAL store in this directory (bulk-loads the shard on first boot, replays the WAL on later ones); empty serves from process memory")
	storeBudget := flag.Int64("store-budget", 0, "with -store-path: cap resident segment-cache bytes (0 = unbudgeted mmap)")
	storeSync := flag.Bool("store-sync", false, "with -store-path: fsync the WAL on every append instead of leaving it to the OS")
	tenants := flag.String("tenants", "", "multi-tenant mode: semicolon-separated tenant specs name=...,key=...[,class=...][,rate=...][,burst=...][,weight=...][,slo=...]; every data-plane frame must then carry a tenant key (lsdgnn-probe -key)")
	gatewayInflight := flag.Int("gateway-inflight", 0, "with -tenants: max concurrent frames past the wire gate before it sheds (0 = default)")
	adminKey := flag.String("admin-key", "", "require this API key on the admin plane (X-API-Key / Bearer / ?key=); /healthz and /readyz stay open")
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(log)

	if *partition < 0 || *partition >= *partitions {
		fatal(fmt.Errorf("partition %d out of %d", *partition, *partitions))
	}
	if *replica < 0 {
		fatal(fmt.Errorf("negative replica index %d", *replica))
	}
	if *chaosErr < 0 || *chaosErr > 1 || *chaosHang < 0 || *chaosHang > 1 {
		fatal(fmt.Errorf("chaos rates must be in [0,1]"))
	}
	part := cluster.HashPartitioner{N: *partitions}
	// An existing persistent store already holds this partition's shard, so
	// the dataset never needs rebuilding — that is the point of -store-path.
	var g *graph.Graph
	var name string
	if *storePath == "" || !store.Exists(*storePath) {
		if *graphFile != "" {
			loaded, err := graph.Load(*graphFile)
			if err != nil {
				fatal(err)
			}
			g, name = loaded, *graphFile
			log.Info("graph loaded", "file", name, "nodes", g.NumNodes(), "edges", g.NumEdges())
		} else {
			ds, err := workload.DatasetByName(*dataset)
			if err != nil {
				fatal(err)
			}
			name = ds.Name
			log.Info("building dataset", "name", ds.Name, "scaled_nodes", ds.SimNodes)
			g = ds.Build(*seed)
		}
	} else {
		name = *storePath
	}

	// storeStats is handed to Open so the "store" layer's series exist at
	// zero from the first scrape even before any page is touched; in
	// memory mode the same block is pre-registered unopened for a stable
	// namespace across modes.
	storeStats := &store.Stats{}
	var srv *cluster.Server
	if *storePath != "" {
		storeOpts := []store.Option{
			store.WithMemoryBudget(*storeBudget), store.WithStats(storeStats),
		}
		if *storeSync {
			storeOpts = append(storeOpts, store.WithSyncMode(store.SyncAlways))
		}
		if !store.Exists(*storePath) {
			// First boot: extract and bulk-load this partition's shard, as
			// lsdgnn-shard bulk-load would.
			shard, err := cluster.ExtractShard(g, part, *partition)
			if err != nil {
				fatal(err)
			}
			log.Info("bulk-loading shard", "dir", *storePath,
				"nodes", shard.NumNodes(), "edges", shard.NumEdges())
			if err := store.Create(*storePath, shard, storeOpts...); err != nil {
				fatal(err)
			}
		}
		ds, err := store.Open(*storePath, storeOpts...)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		srv = cluster.NewBackendServer(ds, part, *partition)
		log.Info("store open", "dir", *storePath, "generation", ds.Generation(),
			"budget", *storeBudget, "wal_replayed", storeStats.WALReplayed())
	} else {
		// Hold only this partition's shard, as a production storage node
		// would.
		srv, err = cluster.ShardServer(g, part, *partition)
		if err != nil {
			fatal(err)
		}
	}
	srv.SetLogger(log)
	tracer := obs.NewTracerWith(obs.TracerConfig{SpanLog: *spanLog, SampleRate: *traceSample})
	srv.SetTracer(tracer)

	// The chaos wrapper is always installed (it short-circuits when the
	// spec is empty) so the admin /chaos endpoint can arm fault injection
	// at runtime; the flags just set the boot-time spec.
	faulty := cluster.NewFaultyHandler(srv, cluster.FaultSpec{ErrRate: *chaosErr, HangRate: *chaosHang}, *chaosSeed)
	if *chaosErr > 0 || *chaosHang > 0 {
		log.Warn("chaos mode", "error_rate", *chaosErr, "hang_rate", *chaosHang, "seed", *chaosSeed)
	}

	// The SLO middleware wraps OUTSIDE the chaos layer: an injected
	// latency spike or error must burn the error budget exactly as a real
	// one would, and the server's internal latency recorder (which only
	// times dispatch) cannot see it.
	slos := stats.NewSLOTracker()
	latSLO := slos.Objective(stats.Objective{
		Name: "server_latency", Threshold: *sloThreshold, Target: *sloTarget,
	})
	errSLO := slos.Objective(stats.Objective{Name: "server_errors", Target: *sloTarget})
	// cluster.serving is the end-to-end latency as the wire sees it —
	// chaos injection and middleware included — where cluster.server only
	// times dispatch. The windowed variants of this series are the ones a
	// spike shows up in while the cumulative histogram barely moves.
	serveLat := stats.NewLatency("cluster.serving")
	var handler cluster.Handler = &cluster.SLOHandler{Inner: faulty, Latency: latSLO, Errors: errSLO, Observe: serveLat}

	// Multi-tenant mode puts the wire gate OUTERMOST: authentication,
	// rate limiting, and shedding happen before the SLO middleware, so a
	// rejected tenant burns no server-side error budget.
	var gate *gateway.WireGate
	if *tenants != "" {
		tcs, err := gateway.ParseTenants(*tenants)
		if err != nil {
			fatal(err)
		}
		gate, err = gateway.NewWireGate(gateway.WireGateConfig{
			Tenants: tcs, MaxInflight: *gatewayInflight,
		}, handler)
		if err != nil {
			fatal(err)
		}
		handler = gate
		log.Info("multi-tenant mode", "tenants", len(tcs))
	}

	tcp, err := cluster.ServeTCP(handler, *addr)
	if err != nil {
		fatal(err)
	}

	// The registry behind /metrics and the final report: per-class access
	// profile, per-request server latency (windowed + cumulative, with
	// trace exemplars), SLO burn rates, hop traces, Go runtime health, and
	// listener counters. The zero-valued resilience, pipeline, and layout
	// blocks pre-register the client-side series at 0 so scrapes and
	// alerts have a stable namespace from the first sample (workers export
	// live values). The mem source registers the buffer-pool layer the
	// same way: its gauges exist from the first scrape even before any
	// request touches a pooled buffer.
	reg := stats.NewRegistry()
	reg.PreRegister(&cluster.ResilienceStats{}, &pipeline.Stats{}, &cluster.LayoutStats{})
	// The store layer registers the block the disk backend writes into (or
	// the untouched zero block in memory mode): lsdgnn_store_* scrapes at 0
	// before the first page fault either way.
	reg.Register(srv.Stats(), srv.Latency(), serveLat, srv.Wire(), tcp,
		mem.Source(), slos, tracer, obs.RuntimeSource(), storeStats)
	if gate != nil {
		// Live gateway + per-tenant layers (all start at zero).
		reg.Register(gate.Sources()...)
	} else {
		// Single-tenant servers still export the lsdgnn_gateway_* series
		// at zero so the scrape namespace is stable across modes.
		reg.PreRegister(&gateway.Stats{})
	}

	health := &obs.Health{}
	// Order matters on the drain path: whoever flips draining — the signal
	// handler below or the admin /drain endpoint — must turn away new
	// cluster connections at the same instant /readyz goes 503, while
	// connections mid-request finish the frame they hold. The listener
	// itself stays open until Shutdown.
	health.OnDrain(func() {
		tcp.SetDraining(true)
		log.Info("draining", "addr", tcp.Addr())
	})
	if *adminAddr != "" {
		adminOpts := []obs.AdminOption{
			obs.WithSLOEndpoint(slos),
			obs.WithTraceEndpoint(tracer),
			obs.WithHandler("/chaos", chaosHandler(faulty, log)),
		}
		if gate != nil {
			adminOpts = append(adminOpts, obs.WithTenantsEndpoint(func() any { return gate.Snapshot() }))
		}
		// Key-gate the whole admin plane except the health probes a load
		// balancer must reach without credentials.
		mux := obs.RequireKey(obs.NewAdminMux(reg, health, adminOpts...), *adminKey, "/healthz", "/readyz")
		admin, bound, err := obs.ServeAdminHandler(*adminAddr, mux)
		if err != nil {
			fatal(err)
		}
		defer admin.Close()
		log.Info("admin plane up", "addr", bound, "key_required", *adminKey != "")
	}

	role := "primary"
	if *replica > 0 {
		role = fmt.Sprintf("replica %d", *replica)
	}
	log.Info("serving", "partition", *partition, "partitions", *partitions,
		"role", role, "dataset", name, "addr", tcp.Addr(), "proto_version", cluster.ProtoVersion)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Flip readiness first — via the OnDrain hook this also rejects new
	// cluster connections — so load balancers and resilient clients rotate
	// this node out while in-flight requests drain; only then close the
	// listener.
	health.SetDraining(true)
	log.Info("shutting down", "drain_limit", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		<-sig
		cancel()
	}()
	if err := tcp.Shutdown(ctx); err != nil {
		log.Error("forced shutdown", "err", err)
	}

	fmt.Println("\nserved traffic:")
	if _, err := reg.WriteTo(os.Stdout); err != nil {
		fatal(err)
	}
}

// chaosHandler rearms the fault-injection wrapper at runtime:
//
//	POST /chaos?err_rate=0.05&spike_rate=0.6&spike=300ms
//
// Omitted parameters default to zero, so a bare POST /chaos disarms
// injection entirely.
func chaosHandler(f *cluster.FaultyHandler, log *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query()
		var spec cluster.FaultSpec
		rate := func(key string, dst *float64) bool {
			s := q.Get(key)
			if s == "" {
				return true
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || v < 0 || v > 1 {
				http.Error(w, key+" must be in [0,1]", http.StatusBadRequest)
				return false
			}
			*dst = v
			return true
		}
		if !rate("err_rate", &spec.ErrRate) || !rate("drop_rate", &spec.DropRate) ||
			!rate("hang_rate", &spec.HangRate) || !rate("spike_rate", &spec.SpikeRate) {
			return
		}
		if s := q.Get("spike"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil || d < 0 {
				http.Error(w, "spike must be a non-negative duration", http.StatusBadRequest)
				return
			}
			spec.Spike = d
		}
		f.SetFaults(spec)
		log.Warn("chaos rearmed", "err_rate", spec.ErrRate, "drop_rate", spec.DropRate,
			"hang_rate", spec.HangRate, "spike_rate", spec.SpikeRate, "spike", spec.Spike)
		fmt.Fprintf(w, "chaos spec: %+v\n", spec)
	})
}

func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsdgnn-server:", err)
	os.Exit(1)
}
