//go:build race

package store

// Under -race, sync.Pool drops one Put in four at random, so a warmed
// pooled read still misses its pool now and then: allocation counts allow
// a buffer and its pool box per read.
func init() { raceSlack = 2 }
