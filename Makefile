GO ?= go

.PHONY: build test verify chaos bench-all smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The chaos/resilience/recovery tests: verify runs them at -count=5,
# chaos at -count=20.
CHAOS_RUN = -run 'TestChaos|TestFaulty|TestBreaker|TestRetry|TestBootstrap|TestPartial|TestPipeline|TestServerError|TestTCPPoolRecovery|TestLayout|TestDrainReplica|TestAddReplica|TestApplyLayout|TestBreakerPruned|TestStalePass|TestClientWithoutPolicy|TestFailFast' ./internal/cluster/ ./internal/sampler/ ./internal/pipeline/ ./internal/gateway/ ./internal/store/

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
	$(GO) test -race -count=20 -run 'TestDispatcher|TestOneServingRoute|TestEngineSpares' ./internal/core/

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
