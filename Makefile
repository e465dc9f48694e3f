GO ?= go

.PHONY: build test verify chaos bench-all smoke fuzz examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The chaos/resilience/recovery tests and the gateway's slot hand-off:
# verify runs them at -count=5, chaos at -count=20.
CHAOS_RUN = -run 'TestChaos|TestGateway|TestDRR|TestFaulty|TestBreaker|TestRetry|TestBootstrap|TestPartial|TestPipeline|TestServerError|TestTCPPoolRecovery|TestLayout|TestDrainReplica|TestAddReplica|TestApplyLayout|TestBreakerPruned|TestStalePass|TestClientWithoutPolicy|TestFailFast' ./internal/cluster/ ./internal/sampler/ ./internal/pipeline/ ./internal/gateway/ ./internal/store/

# Tier-1+ check: vet + build + tests under the race detector, the bench/
# module (its own Go module, which the commands before it never compile)
# and the chaos tests. CI and pre-merge both run exactly this.
verify:
	$(GO) vet ./...
	$(GO) vet -tags smoke ./internal/smoke/
	$(GO) build ./...
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race -count=5 $(CHAOS_RUN)

# Fault-injection suite: every chaos/resilience/recovery test hammered
# under the race detector with a high iteration count.
chaos:
	$(GO) test -race -count=20 $(CHAOS_RUN)
	$(GO) test -race -count=20 -run 'TestDispatcher|TestOneServingRoute' ./internal/core/

# Run every example program end to end; the first non-zero exit fails the
# target.
examples:
	@for e in examples/*/; do echo "== $$e"; $(GO) run ./$$e || exit 1; done

# Every Go benchmark in the tree (paper tables/figures included). The
# serving-path benchmark is bash bench/run.sh (see BENCHMARK.json).
bench-all:
	$(GO) test -bench=. -benchmem

# Smoke test: builds lsdgnn-server, lsdgnn-probe and lsdgnn-shard, boots
# servers as real processes on OS-assigned ports, drives them over TCP and
# asserts on their admin planes and the client's counters, one subtest per
# plane (metrics, wire, pipeline, reshard, slo, gateway, store). One
# subtest: go test -tags smoke -run 'TestSmoke/slo' ./internal/smoke/
smoke:
	$(GO) test -tags smoke -count=1 -timeout 3m ./internal/smoke/

# Fuzz the hostile-input decoders: seed corpus first (fails fast on a
# regression), then a short randomized run on the frame-header parser, the
# packed-frame decoder, the pooled TCP frame reader, the -tenants parser,
# the store's segment header and the graph file reader (ReadFrom and Load
# agree, and what they accept re-serializes to the same bytes), plus
# differential runs of the procedural attribute generator (the AVX-512
# kernel where the CPU has it, the four-lane loop otherwise) against its
# scalar reference, of the ID and degree section codec against the
# word-at-a-time coder it replaced, and of the store's batch neighbour read
# against the graph plus memtable and the scalar read.
fuzz:
	$(GO) test -run 'Fuzz' ./...
	$(GO) test -fuzz 'FuzzParseHeader' -fuzztime 10s ./internal/cluster/
	$(GO) test -fuzz 'FuzzDecodePacked' -fuzztime 20s ./internal/cluster/
	$(GO) test -fuzz 'FuzzIDSection' -fuzztime 10s ./internal/cluster/
	$(GO) test -fuzz 'FuzzReadFrame' -fuzztime 10s ./internal/cluster/
	$(GO) test -fuzz 'FuzzParseTenants' -fuzztime 10s ./internal/gateway/
	$(GO) test -fuzz 'FuzzSegmentHeader' -fuzztime 10s ./internal/store/
	$(GO) test -fuzz 'FuzzNeighborsBatch' -fuzztime 10s ./internal/store/
	$(GO) test -fuzz 'FuzzProceduralAttrs' -fuzztime 10s ./internal/graph/
	$(GO) test -fuzz 'FuzzReadFrom' -fuzztime 10s ./internal/graph/
