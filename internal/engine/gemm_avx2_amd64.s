//go:build !noasm

#include "textflag.h"

// AVX2+FMA float32 microkernel and the CPUID probes that gate it.
// See gemm_asm_amd64.go for the feature-detection logic and
// gemm_asm.go for the driver and the packed-B layout contract.

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func sgemmTile6x16(kc int, a *float32, lda int, pb, c *float32, ldc int)
//
// C[0:6][0:16] += A·B over one K panel. a is the first of six rows of
// the row-major weight matrix, lda floats apart, read where they lie:
// row r's step-kk value is a[r*lda+kk]. pb is a 16-column k-major
// packed strip (pb[kk*16+j]), c the top-left C element with rows ldc
// floats apart. The 6x16 tile holds twelve YMM accumulators (rows x two
// 8-lane halves); each k step broadcasts six A values against the two B
// halves — 12 FMAs per step, one rounding per multiply-add. Every C
// element is loaded once, accumulated in ascending k in a single
// register, and stored once. The caller guarantees all six rows hold kc
// floats (the driver slices them out of a Go slice before the call).
//
// Register map: Y0/Y1 = B halves, Y2/Y3 = broadcast A, Y4..Y15 = C;
// DI = rows 0..2 (DI, +R10, +2*R10), R11 = rows 3..5, R10 = lda bytes.
TEXT ·sgemmTile6x16(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), DI
	MOVQ lda+16(FP), R10
	MOVQ pb+24(FP), SI
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R8
	SHLQ $2, R10             // A row stride in bytes
	LEAQ (R10)(R10*2), R11
	ADDQ DI, R11             // row 3
	SHLQ $2, R8              // C row stride in bytes
	LEAQ (R8)(R8*2), R9      // 3*ldc bytes

	// Load the 6x16 C tile: row r at DX + r*R8, halves 0 and 32 bytes.
	MOVQ DX, AX
	VMOVUPS (AX), Y4
	VMOVUPS 32(AX), Y5
	VMOVUPS (AX)(R8*1), Y6
	VMOVUPS 32(AX)(R8*1), Y7
	VMOVUPS (AX)(R8*2), Y8
	VMOVUPS 32(AX)(R8*2), Y9
	ADDQ R9, AX              // rows 3..5
	VMOVUPS (AX), Y10
	VMOVUPS 32(AX), Y11
	VMOVUPS (AX)(R8*1), Y12
	VMOVUPS 32(AX)(R8*1), Y13
	VMOVUPS (AX)(R8*2), Y14
	VMOVUPS 32(AX)(R8*2), Y15

tileLoop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VBROADCASTSS (DI), Y2
	VBROADCASTSS (DI)(R10*1), Y3
	VFMADD231PS Y0, Y2, Y4
	VFMADD231PS Y1, Y2, Y5
	VFMADD231PS Y0, Y3, Y6
	VFMADD231PS Y1, Y3, Y7
	VBROADCASTSS (DI)(R10*2), Y2
	VBROADCASTSS (R11), Y3
	VFMADD231PS Y0, Y2, Y8
	VFMADD231PS Y1, Y2, Y9
	VFMADD231PS Y0, Y3, Y10
	VFMADD231PS Y1, Y3, Y11
	VBROADCASTSS (R11)(R10*1), Y2
	VBROADCASTSS (R11)(R10*2), Y3
	VFMADD231PS Y0, Y2, Y12
	VFMADD231PS Y1, Y2, Y13
	VFMADD231PS Y0, Y3, Y14
	VFMADD231PS Y1, Y3, Y15
	ADDQ $4, DI
	ADDQ $4, R11
	ADDQ $64, SI
	DECQ CX
	JNZ  tileLoop

	// Store the tile back.
	MOVQ DX, AX
	VMOVUPS Y4, (AX)
	VMOVUPS Y5, 32(AX)
	VMOVUPS Y6, (AX)(R8*1)
	VMOVUPS Y7, 32(AX)(R8*1)
	VMOVUPS Y8, (AX)(R8*2)
	VMOVUPS Y9, 32(AX)(R8*2)
	ADDQ R9, AX
	VMOVUPS Y10, (AX)
	VMOVUPS Y11, 32(AX)
	VMOVUPS Y12, (AX)(R8*1)
	VMOVUPS Y13, 32(AX)(R8*1)
	VMOVUPS Y14, (AX)(R8*2)
	VMOVUPS Y15, 32(AX)(R8*2)
	VZEROUPPER
	RET
