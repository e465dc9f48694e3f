// Package smoke checks the serving tier across real process boundaries. Its
// one test, behind the smoke build tag, builds lsdgnn-server, lsdgnn-probe
// and lsdgnn-shard, boots servers on OS-assigned ports, drives them over TCP
// with the cluster client and executor, and asserts on their admin planes
// and the client's own counters. Subtests: metrics, wire, pipeline,
// reshard, slo, gateway and store.
//
//	go test -tags smoke -count=1 ./internal/smoke/
//	go test -tags smoke -run 'TestSmoke/slo' ./internal/smoke/
package smoke
