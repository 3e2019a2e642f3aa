//go:build !noasm

#include "textflag.h"

// AVX2 elementwise span kernels: the vector form of the loops in
// span.go, eight lanes per step. They are unfused on purpose — a
// separate VMULPS and VADDPS round exactly as the MULSS, ADDSS the Go
// compiler emits for `x*scale + shift` on amd64, so every result equals
// the scalar loop's to the bit and the noasm build stays the reference.
// That leans on the compiler, not the spec, which lets an
// implementation fuse x*y + z: as of go1.24 the amd64 back end does so
// at no GOAMD64 level (v3 only lowers math.FMA), while arm64, riscv64,
// ppc64 and s390x do — ports with no vector form here, so their Go
// loops only ever meet themselves. Should amd64 start contracting, the
// vector head and the scalar tail of one span would round differently;
// TestSpanKernelsMatchGoLoops (its random-operand leg) and
// TestDepthwiseVecMatchesDirect fail on such a build, and the fix is an
// explicit float32(x*scale) in the loops. Both were run at GOAMD64=v3
// when this was written. The clamps reproduce the Go branches, not just
// their values on ordinary numbers:
//
//	RELU   v > 0 ? v : 0            VMAXPS returns its second source
//	                                (the zero) when the compare is false
//	                                or unordered: -0 → +0, NaN → 0.
//	RELU6  v <= 0 → 0; v >= 6 → 6   a v <= 0 mask clears to +0 (NaN
//	                                compares false and passes through),
//	                                then min(6, v) keeps v unless 6 < v.
//
// Every kernel takes n, a positive multiple of 8; the Go wrappers run
// the tail. dst may equal src (in-place) — each step loads before it
// stores. Y14 = 0, Y15 = 6 throughout.

DATA spanSix<>+0(SB)/4, $0x40c00000 // float32(6)
GLOBL spanSix<>(SB), RODATA, $4

#define RELU(v) \
	VMAXPS Y14, v, v

#define RELU6(v, m) \
	VCMPPS  $2, Y14, v, m \ // m = v <= 0
	VANDNPS v, m, v       \ // v = ^m & v
	VMINPS  v, Y15, v       // v = 6 < v ? 6 : v

#define STEP \
	ADDQ $32, SI \
	ADDQ $32, DI \
	DECQ CX

// func spanAffineAsm(dst, src *float32, n int, scale, shift float32, act int)
//
// dst[i] = act(src[i]*scale + shift); act is a spanAct (0 none, 1 ReLU,
// 2 ReLU6). Y12 = scale, Y13 = shift.
TEXT ·spanAffineAsm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ act+32(FP), AX
	VBROADCASTSS scale+24(FP), Y12
	VBROADCASTSS shift+28(FP), Y13
	VXORPS Y14, Y14, Y14
	VBROADCASTSS spanSix<>(SB), Y15
	SHRQ $3, CX
	CMPQ AX, $1
	JEQ  affineRelu
	CMPQ AX, $2
	JEQ  affineRelu6

affinePlain:
	VMOVUPS (SI), Y0
	VMULPS  Y12, Y0, Y0
	VADDPS  Y13, Y0, Y0
	VMOVUPS Y0, (DI)
	STEP
	JNZ  affinePlain
	VZEROUPPER
	RET

affineRelu:
	VMOVUPS (SI), Y0
	VMULPS  Y12, Y0, Y0
	VADDPS  Y13, Y0, Y0
	RELU(Y0)
	VMOVUPS Y0, (DI)
	STEP
	JNZ  affineRelu
	VZEROUPPER
	RET

affineRelu6:
	VMOVUPS (SI), Y0
	VMULPS  Y12, Y0, Y0
	VADDPS  Y13, Y0, Y0
	RELU6(Y0, Y1)
	VMOVUPS Y0, (DI)
	STEP
	JNZ  affineRelu6
	VZEROUPPER
	RET

// func spanActAsm(dst, src *float32, n int, act int)
//
// dst[i] = act(src[i]); act is spanReLU (1) or spanReLU6 (2).
TEXT ·spanActAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ act+24(FP), AX
	VXORPS Y14, Y14, Y14
	VBROADCASTSS spanSix<>(SB), Y15
	SHRQ $3, CX
	CMPQ AX, $2
	JEQ  actRelu6

actRelu:
	VMOVUPS (SI), Y0
	RELU(Y0)
	VMOVUPS Y0, (DI)
	STEP
	JNZ  actRelu
	VZEROUPPER
	RET

actRelu6:
	VMOVUPS (SI), Y0
	RELU6(Y0, Y1)
	VMOVUPS Y0, (DI)
	STEP
	JNZ  actRelu6
	VZEROUPPER
	RET

// func spanAddAsm(dst, src *float32, n int)
//
// dst[i] += src[i].
TEXT ·spanAddAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

addLoop:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	STEP
	JNZ  addLoop
	VZEROUPPER
	RET
