GO ?= go

.PHONY: build test verify chaos bench-all metrics-smoke wire-smoke pipeline-smoke reshard-smoke slo-smoke gateway-smoke store-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1+ check: vet + build + tests under the race detector.
verify:
	./scripts/verify.sh

# Fault-injection suite: every chaos/resilience/recovery test hammered
# under the race detector with a high iteration count.
chaos:
	$(GO) test -race -count=20 -run 'TestChaos|TestFaulty|TestBreaker|TestRetry|TestBootstrap|TestPartial|TestPipeline|TestServerError|TestTCPPoolRecovery|TestLayout|TestDrainReplica|TestAddReplica|TestApplyLayout|TestBreakerPruned|TestStalePass|TestClientWithoutPolicy|TestFailFast' ./internal/cluster/ ./internal/sampler/ ./internal/pipeline/ ./internal/gateway/ ./internal/store/
	$(GO) test -race -count=20 -run 'TestDispatcher|TestOneServingRoute|TestEngineSpares' ./internal/core/

# Every Go benchmark in the tree (paper tables/figures included). The
# serving-path benchmark is bash bench/run.sh (see BENCHMARK.json).
bench-all:
	$(GO) test -bench=. -benchmem

# Admin-plane smoke test: boots lsdgnn-server with -admin-addr, scrapes
# /metrics, and checks the key Prometheus series and drain-aware health.
metrics-smoke:
	./scripts/metrics_smoke.sh

# Wire-plane smoke test: boots lsdgnn-server, drives a packed burst
# through lsdgnn-probe over TCP, and asserts the
# lsdgnn_cluster_wire_* series (bytes, packed frames, pack ratio) moved.
wire-smoke:
	./scripts/wire_smoke.sh

# Pipeline smoke test: boots lsdgnn-server (checks the zero-valued
# lsdgnn_pipeline_* pre-registration on /metrics), drives a burst through
# lsdgnn-probe's executor over TCP, and asserts the executor's
# issued/retired/batches counters moved and balance.
pipeline-smoke:
	./scripts/pipeline_smoke.sh

# Reshard smoke test: boots a 2×2 replicated lsdgnn-server tier (checks
# the zero-valued lsdgnn_cluster_layout_* pre-registration on /metrics),
# drains one replica live through lsdgnn-probe mid-burst with zero failed
# batches, asserts the layout counters moved, and flips a server into
# draining via the admin POST /drain endpoint.
reshard-smoke:
	./scripts/reshard_smoke.sh

# SLO smoke test: boots lsdgnn-server (checks the zero-valued lsdgnn_slo_*
# and lsdgnn_runtime_* pre-registration), drives a clean probe burst (burn
# stays 0), arms a latency spike via POST /chaos and asserts the fast-burn
# gauge flips above 1 while the cumulative histogram barely moves, then
# scrapes OpenMetrics exemplars and follows one trace_id through
# /trace/{id}.
slo-smoke:
	./scripts/slo_smoke.sh

# Gateway smoke test: boots lsdgnn-server in multi-tenant mode with a
# key-gated admin plane (checks the zero-valued lsdgnn_gateway_*
# pre-registration), rejects a bad-key probe (401-class, auth_failures
# moves), runs a clean light-tenant burst, blows a greedy burst through the
# heavy tenant's rate contract (its ratelimited/shed counters move, the
# light tenant's stay clean), and reads the /tenants JSON view.
gateway-smoke:
	./scripts/gateway_smoke.sh

# Store smoke test: bulk-loads per-partition CSR segments with
# lsdgnn-shard bulk-load, boots lsdgnn-server -store-path on one (checks
# the zero-valued lsdgnn_store_* pre-registration on /metrics), drives a
# probe burst and asserts the read counters moved, then kill -9s the
# server mid-ingest and asserts the restart replays the WAL.
store-smoke:
	./scripts/store_smoke.sh

# Fuzz the hostile-input decoders: seed corpus first (fails fast on a
# regression), then a short randomized run on the frame-header parser, the
# packed-frame decoder, the pooled TCP frame reader, the -tenants parser and
# the store's segment header, plus a differential run of the procedural
# attribute generator (the AVX-512 kernel where the CPU has it, the
# four-lane loop otherwise) against its scalar reference.
fuzz:
	$(GO) test -run 'Fuzz' ./...
	$(GO) test -fuzz 'FuzzParseHeader' -fuzztime 10s ./internal/cluster/
	$(GO) test -fuzz 'FuzzDecodePacked' -fuzztime 20s ./internal/cluster/
	$(GO) test -fuzz 'FuzzReadFrame' -fuzztime 10s ./internal/cluster/
	$(GO) test -fuzz 'FuzzParseTenants' -fuzztime 10s ./internal/gateway/
	$(GO) test -fuzz 'FuzzSegmentHeader' -fuzztime 10s ./internal/store/
	$(GO) test -fuzz 'FuzzProceduralAttrs' -fuzztime 10s ./internal/graph/
