//go:build race

package cluster

// Under -race, sync.Pool drops one Put in four at random, so a warmed
// pooled path still misses its pools now and then: allocation-count
// assertions allow that many extra allocations per call.
func init() { raceSlack = 4 }
