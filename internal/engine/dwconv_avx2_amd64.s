//go:build !noasm

#include "textflag.h"

// AVX2 3x3 depthwise convolution of one plane, strides 1 and 2. Each
// lane is one output element and runs dwCell's nine multiply-adds in
// dwCell's order — r-major then c, starting from the bias, a separate
// VMULPS and VADDPS per tap (no FMA), so every output equals the scalar
// kernels' to the bit (on the same footing as the span kernels: the
// amd64 compiler does not contract `sum += src*w`; see the header of
// span_avx2_amd64.s). The border is folded in by the caller: src is a
// zero-padded copy of the input plane (see dwPlanes), so a tap the
// scalar loop skips multiplies a +0 instead, and adding ±0 to a sum
// that started at +0 or at a non-zero bias leaves it unchanged.

// Tail store mask: loading eight words at dwMask + (8-lanes)*4 yields
// `lanes` all-ones words followed by zeros.
DATA dwMask<>+0(SB)/8, $0xffffffffffffffff
DATA dwMask<>+8(SB)/8, $0xffffffffffffffff
DATA dwMask<>+16(SB)/8, $0xffffffffffffffff
DATA dwMask<>+24(SB)/8, $0xffffffffffffffff
DATA dwMask<>+32(SB)/8, $0
DATA dwMask<>+40(SB)/8, $0
DATA dwMask<>+48(SB)/8, $0
DATA dwMask<>+56(SB)/8, $0
GLOBL dwMask<>(SB), RODATA, $64

// acc (Y10) += x * w, rounded twice like `sum += src * w`.
#define TAP(x, w) \
	VMULPS x, w, Y11 \
	VADDPS Y11, Y10, Y10

// Stride 1: the three taps of one kernel row are three overlapping
// unaligned loads.
#define ROW1(p, wa, wb, wc) \
	TAP((p), wa)  \
	TAP(4(p), wb) \
	TAP(8(p), wc)

// Stride 2: output lane j reads columns 2j, 2j+1, 2j+2. Two loads are
// split into their even (Y13) and odd (Y14) columns — VSHUFPS picks
// them per 128-bit half, VPERMPD $0xD8 puts the halves in order — and
// the third tap is the even columns of the same loads two floats on.
#define ROW2(p, wa, wb, wc) \
	VMOVUPS (p), Y11               \
	VMOVUPS 32(p), Y12             \
	VSHUFPS $0x88, Y12, Y11, Y13   \
	VSHUFPS $0xDD, Y12, Y11, Y14   \
	VPERMPD $0xD8, Y13, Y13        \
	VPERMPD $0xD8, Y14, Y14        \
	VMOVUPS 8(p), Y11              \
	VMOVUPS 40(p), Y12             \
	VSHUFPS $0x88, Y12, Y11, Y12   \
	VPERMPD $0xD8, Y12, Y12        \
	TAP(Y13, wa)                   \
	TAP(Y14, wb)                   \
	TAP(Y12, wc)

// func dwconv3x3Asm(dst, src, w *float32, bias float32, outH, outW, pitch, stride int)
//
// dst is the outH x outW output plane (rows contiguous), src the
// top-left of the padded input plane with rows pitch floats apart, w
// the plane's nine weights. Output (oh, ow) reads padded rows
// oh*stride..+2 and columns ow*stride..+2. Rows are walked in chunks of
// eight outputs; a final partial chunk computes all eight lanes (the
// caller's padded buffer has the slack the over-read needs) and stores
// only the live ones through dwMask.
//
// Register map: Y0..Y8 = weights, Y9 = bias, Y10 = accumulator,
// Y11..Y14 = scratch, Y15 = tail mask. R12/R13/R14 = the three input
// rows, BX = outputs left in the row, R11 = input bytes per chunk.
TEXT ·dwconv3x3Asm(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ w+16(FP), AX
	MOVQ outH+32(FP), R8
	MOVQ outW+40(FP), R9
	MOVQ pitch+48(FP), R10
	MOVQ stride+56(FP), R11
	VBROADCASTSS 0(AX), Y0
	VBROADCASTSS 4(AX), Y1
	VBROADCASTSS 8(AX), Y2
	VBROADCASTSS 12(AX), Y3
	VBROADCASTSS 16(AX), Y4
	VBROADCASTSS 20(AX), Y5
	VBROADCASTSS 24(AX), Y6
	VBROADCASTSS 28(AX), Y7
	VBROADCASTSS 32(AX), Y8
	VBROADCASTSS bias+24(FP), Y9
	SHLQ $2, R10             // pitch in bytes
	MOVQ R10, CX
	IMULQ R11, CX            // input bytes per output row
	SHLQ $5, R11             // input bytes per chunk: 32 * stride

	// Tail mask for outW mod 8 lanes (all zeros, and unused, at 0).
	MOVQ R9, AX
	ANDQ $7, AX
	MOVQ $8, DX
	SUBQ AX, DX
	LEAQ dwMask<>(SB), AX
	VMOVDQU (AX)(DX*4), Y15

rowLoop:
	MOVQ SI, R12
	LEAQ (SI)(R10*1), R13
	LEAQ (SI)(R10*2), R14
	MOVQ R9, BX

chunk:
	VMOVAPS Y9, Y10
	CMPQ R11, $32
	JNE  stride2
	ROW1(R12, Y0, Y1, Y2)
	ROW1(R13, Y3, Y4, Y5)
	ROW1(R14, Y6, Y7, Y8)
	JMP  store

stride2:
	ROW2(R12, Y0, Y1, Y2)
	ROW2(R13, Y3, Y4, Y5)
	ROW2(R14, Y6, Y7, Y8)

store:
	CMPQ BX, $8
	JLT  tail
	VMOVUPS Y10, (DI)
	ADDQ $32, DI
	ADDQ R11, R12
	ADDQ R11, R13
	ADDQ R11, R14
	SUBQ $8, BX
	JNZ  chunk
	JMP  rowDone

tail:
	VMASKMOVPS Y10, Y15, (DI)
	LEAQ (DI)(BX*4), DI

rowDone:
	ADDQ CX, SI
	DECQ R8
	JNZ  rowLoop
	VZEROUPPER
	RET
