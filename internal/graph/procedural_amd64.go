package graph

// haveWide reports whether the CPU and OS support the AVX-512 subsets the
// procedural32 kernel uses: F, DQ (VPMULLQ, VCVTQQ2PS) and VL (the ymm
// forms), with the OS saving the opmask and all 32 zmm registers.
var haveWide = detectAVX512()

// procedural32 runs 32 nodes' splitmix64 chains for steps steps (a multiple
// of 8), writing node n's floats from dst + n*stride (in floats) on. h holds
// the chain states on entry and gets them back on return; tmp is the
// kernel's scratch. Nothing is bounds-checked.
//
//go:noescape
func procedural32(h *[32]uint64, dst *float32, stride, steps int, tmp *[256]float32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func detectAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	// XCR0 bits 1, 2, 5, 6, 7: SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state.
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if eax, _ := xgetbv(); eax&xcr0 != xcr0 {
		return false
	}
	const avx512 = 1<<16 | 1<<17 | 1<<31 // F, DQ, VL
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512 == avx512
}

// proceduralWide writes the vectors of every full group of 32 IDs in vs
// through procedural32 and returns how many IDs it covered (0 when attrLen
// is under 8). The kernel writes each row's first attrLen&^7 floats; the
// row's last 1–7 continue from the chain states it hands back.
func proceduralWide(dst []float32, seed uint64, attrLen int, vs []NodeID) int {
	n := len(vs) &^ 31
	if n == 0 || attrLen < 8 {
		return 0
	}
	steps := attrLen &^ 7
	var h [32]uint64
	var tmp [256]float32
	for i := 0; i < n; i += 32 {
		rows := dst[i*attrLen : (i+32)*attrLen]
		for j, v := range vs[i : i+32] {
			h[j] = splitmix64(seed ^ uint64(v)*0x9e3779b97f4a7c15)
		}
		procedural32(&h, &rows[0], attrLen, steps, &tmp)
		for j, x := range h {
			for k := j*attrLen + steps; k < (j+1)*attrLen; k++ {
				x = splitmix64(x)
				rows[k] = attrFloat(x)
			}
		}
	}
	return n
}
