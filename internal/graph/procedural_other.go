//go:build !amd64

package graph

// haveWide is false off amd64: there is no vector kernel, and
// ProceduralAttrs runs its portable loop for every ID.
const haveWide = false

// proceduralWide covers no IDs off amd64.
func proceduralWide(dst []float32, seed uint64, attrLen int, vs []NodeID) int { return 0 }
