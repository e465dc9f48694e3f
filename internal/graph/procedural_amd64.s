#include "textflag.h"

// One splitmix64 step on the 8 chain states in z, using t as scratch:
// the same add, xor-shifts and multiplies (low 64 bits) as splitmix64.
#define MIX(z, t) \
	VPADDQ   Z4, z, z; \
	VPSRLQ   $30, z, t; \
	VPXORQ   t, z, z; \
	VPMULLQ  Z5, z, z; \
	VPSRLQ   $27, z, t; \
	VPXORQ   t, z, z; \
	VPMULLQ  Z6, z, z; \
	VPSRLQ   $31, z, t; \
	VPXORQ   t, z, z

// The 8 floats of one step of chain z, float32(int64(h>>11))/2^52 - 1,
// stored to tmp at byte offset off. VCVTQQ2PS rounds to nearest-even as
// CVTSQ2SS does; the product by 2^-52 is exact, so the fused multiply-add
// rounds once, exactly where the scalar subtract does.
#define EMIT(z, t, y, off) \
	VPSRLQ      $11, z, t; \
	VCVTQQ2PS   t, y; \
	VFMADD213PS Y8, Y7, y; \
	VMOVUPS     y, (off)(SI)

// One step of all four chains; chain c's 8 floats of step s land at
// tmp[c*64 + s*8].
#define STEP(s) \
	MIX(Z0, Z9); \
	MIX(Z1, Z10); \
	MIX(Z2, Z11); \
	MIX(Z3, Z12); \
	EMIT(Z0, Z9, Y13, 0+s*32); \
	EMIT(Z1, Z10, Y14, 256+s*32); \
	EMIT(Z2, Z11, Y15, 512+s*32); \
	EMIT(Z3, Z12, Y16, 768+s*32)

// Transposes chain c's 8×8 block in tmp (row = step, column = node) and
// stores node n's 8 floats at R9 + n*BX, leaving R9 past the chain's rows.
#define TRANSPOSE(c) \
	VMOVUPS     (c*256+0)(SI), Y16; \
	VMOVUPS     (c*256+32)(SI), Y17; \
	VMOVUPS     (c*256+64)(SI), Y18; \
	VMOVUPS     (c*256+96)(SI), Y19; \
	VMOVUPS     (c*256+128)(SI), Y20; \
	VMOVUPS     (c*256+160)(SI), Y21; \
	VMOVUPS     (c*256+192)(SI), Y22; \
	VMOVUPS     (c*256+224)(SI), Y23; \
	VUNPCKLPS   Y17, Y16, Y24; \
	VUNPCKHPS   Y17, Y16, Y25; \
	VUNPCKLPS   Y19, Y18, Y26; \
	VUNPCKHPS   Y19, Y18, Y27; \
	VUNPCKLPS   Y21, Y20, Y28; \
	VUNPCKHPS   Y21, Y20, Y29; \
	VUNPCKLPS   Y23, Y22, Y30; \
	VUNPCKHPS   Y23, Y22, Y31; \
	VSHUFPS     $0x44, Y26, Y24, Y16; \
	VSHUFPS     $0xEE, Y26, Y24, Y17; \
	VSHUFPS     $0x44, Y27, Y25, Y18; \
	VSHUFPS     $0xEE, Y27, Y25, Y19; \
	VSHUFPS     $0x44, Y30, Y28, Y20; \
	VSHUFPS     $0xEE, Y30, Y28, Y21; \
	VSHUFPS     $0x44, Y31, Y29, Y22; \
	VSHUFPS     $0xEE, Y31, Y29, Y23; \
	VSHUFF32X4  $0, Y20, Y16, Y24; \
	VSHUFF32X4  $0, Y21, Y17, Y25; \
	VSHUFF32X4  $0, Y22, Y18, Y26; \
	VSHUFF32X4  $0, Y23, Y19, Y27; \
	VSHUFF32X4  $3, Y20, Y16, Y28; \
	VSHUFF32X4  $3, Y21, Y17, Y29; \
	VSHUFF32X4  $3, Y22, Y18, Y30; \
	VSHUFF32X4  $3, Y23, Y19, Y31; \
	VMOVUPS     Y24, (R9); \
	ADDQ        BX, R9; \
	VMOVUPS     Y25, (R9); \
	ADDQ        BX, R9; \
	VMOVUPS     Y26, (R9); \
	ADDQ        BX, R9; \
	VMOVUPS     Y27, (R9); \
	ADDQ        BX, R9; \
	VMOVUPS     Y28, (R9); \
	ADDQ        BX, R9; \
	VMOVUPS     Y29, (R9); \
	ADDQ        BX, R9; \
	VMOVUPS     Y30, (R9); \
	ADDQ        BX, R9; \
	VMOVUPS     Y31, (R9); \
	ADDQ        BX, R9

// func procedural32(h *[32]uint64, dst *float32, stride, steps int, tmp *[256]float32)
TEXT ·procedural32(SB), NOSPLIT, $0-40
	MOVQ h+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ stride+16(FP), BX
	MOVQ steps+24(FP), CX
	MOVQ tmp+32(FP), SI
	SHLQ $2, BX
	SHRQ $3, CX

	VMOVDQU64 0(AX), Z0
	VMOVDQU64 64(AX), Z1
	VMOVDQU64 128(AX), Z2
	VMOVDQU64 192(AX), Z3
	MOVQ         $0x9e3779b97f4a7c15, DX
	VPBROADCASTQ DX, Z4
	MOVQ         $0xbf58476d1ce4e5b9, DX
	VPBROADCASTQ DX, Z5
	MOVQ         $0x94d049bb133111eb, DX
	VPBROADCASTQ DX, Z6
	MOVL         $0x25800000, DX // float32 2^-52
	VPBROADCASTD DX, Y7
	MOVL         $0xbf800000, DX // float32 -1
	VPBROADCASTD DX, Y8

	TESTQ CX, CX
	JZ    done

loop:
	STEP(0)
	STEP(1)
	STEP(2)
	STEP(3)
	STEP(4)
	STEP(5)
	STEP(6)
	STEP(7)
	MOVQ DI, R9
	TRANSPOSE(0)
	TRANSPOSE(1)
	TRANSPOSE(2)
	TRANSPOSE(3)
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

done:
	VMOVDQU64 Z0, 0(AX)
	VMOVDQU64 Z1, 64(AX)
	VMOVDQU64 Z2, 128(AX)
	VMOVDQU64 Z3, 192(AX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
