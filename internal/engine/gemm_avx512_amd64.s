//go:build !noasm

#include "textflag.h"

// AVX-512 float32 microkernel. gemm_asm_amd64.go probes for it, and
// with it sgemmAsm sweeps A in 12-row strips through this tile;
// gemm_asm.go holds that loop and the packed-B layout contract it
// shares with the AVX2 tile.

// func sgemmTile12x16(kc int, a *float32, lda int, pb, c *float32, ldc int)
//
// C[0:12][0:16] += A·B over one K panel, with the contract of
// sgemmTile6x16 (gemm_avx2_amd64.s) at twice the rows: a is the first
// of twelve rows of the row-major weight matrix, lda floats apart, read
// where they lie; pb is a 16-column k-major packed strip; c the
// top-left C element with rows ldc floats apart. A 16-column row of C
// is one ZMM register, so the tile holds twelve accumulators; each k
// step loads the B row once and runs twelve FMAs, each broadcasting
// its A value straight from memory. Every C element is loaded once,
// accumulated in ascending k in a single register with one rounding per
// multiply-add, and stored once — the sequence the AVX2 tile runs, so
// the two tiles agree bit for bit. The caller guarantees all twelve
// rows hold kc ≥ 1 floats.
//
// Register map: Z0 = B row, Z4..Z15 = C rows 0..11; DI, R11, R12, R13
// = rows 0, 3, 6, 9, each base reaching {+0, +lda, +2·lda} through
// R10 = lda bytes.
TEXT ·sgemmTile12x16(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), DI
	MOVQ lda+16(FP), R10
	MOVQ pb+24(FP), SI
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R8
	SHLQ $2, R10             // A row stride in bytes
	LEAQ (R10)(R10*2), R9    // 3*lda bytes
	LEAQ (DI)(R9*1), R11     // row 3
	LEAQ (R11)(R9*1), R12    // row 6
	LEAQ (R12)(R9*1), R13    // row 9
	SHLQ $2, R8              // C row stride in bytes
	LEAQ (R8)(R8*2), R9      // 3*ldc bytes

	// Load the 12x16 C tile, three rows per base.
	MOVQ DX, AX
	VMOVUPS (AX), Z4
	VMOVUPS (AX)(R8*1), Z5
	VMOVUPS (AX)(R8*2), Z6
	ADDQ R9, AX
	VMOVUPS (AX), Z7
	VMOVUPS (AX)(R8*1), Z8
	VMOVUPS (AX)(R8*2), Z9
	ADDQ R9, AX
	VMOVUPS (AX), Z10
	VMOVUPS (AX)(R8*1), Z11
	VMOVUPS (AX)(R8*2), Z12
	ADDQ R9, AX
	VMOVUPS (AX), Z13
	VMOVUPS (AX)(R8*1), Z14
	VMOVUPS (AX)(R8*2), Z15

	// Start the loop on a 64-byte boundary: where it lands otherwise
	// moves with unrelated code, and so did the tile's speed.
	PCALIGN $64

tileLoop:
	VMOVUPS (SI), Z0
	VFMADD231PS.BCST (DI), Z0, Z4
	VFMADD231PS.BCST (DI)(R10*1), Z0, Z5
	VFMADD231PS.BCST (DI)(R10*2), Z0, Z6
	VFMADD231PS.BCST (R11), Z0, Z7
	VFMADD231PS.BCST (R11)(R10*1), Z0, Z8
	VFMADD231PS.BCST (R11)(R10*2), Z0, Z9
	VFMADD231PS.BCST (R12), Z0, Z10
	VFMADD231PS.BCST (R12)(R10*1), Z0, Z11
	VFMADD231PS.BCST (R12)(R10*2), Z0, Z12
	VFMADD231PS.BCST (R13), Z0, Z13
	VFMADD231PS.BCST (R13)(R10*1), Z0, Z14
	VFMADD231PS.BCST (R13)(R10*2), Z0, Z15
	ADDQ $4, DI
	ADDQ $4, R11
	ADDQ $4, R12
	ADDQ $4, R13
	ADDQ $64, SI
	DECQ CX
	JNZ  tileLoop

	// Store the tile back.
	MOVQ DX, AX
	VMOVUPS Z4, (AX)
	VMOVUPS Z5, (AX)(R8*1)
	VMOVUPS Z6, (AX)(R8*2)
	ADDQ R9, AX
	VMOVUPS Z7, (AX)
	VMOVUPS Z8, (AX)(R8*1)
	VMOVUPS Z9, (AX)(R8*2)
	ADDQ R9, AX
	VMOVUPS Z10, (AX)
	VMOVUPS Z11, (AX)(R8*1)
	VMOVUPS Z12, (AX)(R8*2)
	ADDQ R9, AX
	VMOVUPS Z13, (AX)
	VMOVUPS Z14, (AX)(R8*1)
	VMOVUPS Z15, (AX)(R8*2)
	VZEROUPPER
	RET
