#!/bin/sh
# Tier-1+ verification: static checks plus the full test suite under the
# race detector. CI and pre-merge both run exactly this.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# bench/ is a module of its own that the commands above never compile; it
# builds against this tree's cluster/gateway/pipeline APIs.
echo "== bench module: go vet + go test"
(cd bench && go vet ./... && go test ./...)

echo "== chaos suite (fault injection under -race)"
go test -race -count=5 -run 'TestChaos|TestFaulty|TestBreaker|TestRetry|TestBootstrap|TestPartial|TestTCPPoolRecovery|TestLayout|TestDrainReplica|TestAddReplica|TestApplyLayout|TestBreakerPruned|TestStalePass|TestClientWithoutPolicy|TestFailFast' ./internal/cluster/

echo "verify: OK"
