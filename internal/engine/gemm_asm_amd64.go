//go:build !noasm

package engine

import "os"

// AVX2+FMA assembly gating for amd64. The kernels in
// gemm_avx2_amd64.s / qgemm_avx2_amd64.s need AVX2, FMA3 and an OS
// that saves YMM state; all three are probed once at init via CPUID /
// XGETBV. Without them (or under the noasm build tag, or with
// DNNJPS_NOASM set) the engine behaves exactly as before this kernel
// existed: every GEMM takes the streaming panel loop, bit-identical to
// the pre-asm build. Where the CPU and OS also have AVX-512, the
// float32 GEMM runs the 12x16 tile of gemm_avx512_amd64.s instead of
// the 6x16 one: the same FMA sequence per C element, twice the vector
// width, so outputs do not depend on which of the two ran.

const (
	// asmMR x asmNR is the largest register tile: 12 rows x 16 columns,
	// the AVX-512 tile's twelve ZMM accumulators, one per row. The AVX2
	// tile is 6 x 16 (twelve YMM accumulators, rows x two 8-lane
	// halves); asmTileRows says which one sgemmAsm sweeps with.
	// preferAsm's row guard is asmMR on every amd64 host, so a shape
	// takes the same path, asm or panel, whichever tile the CPU has.
	asmMR = 12
	asmNR = 16

	// Cache blocking for the asm driver. The packed B buffer holds
	// asmKC x asmNC floats (1 MiB, L2/L3), and a column block takes K as
	// deep as it holds at the block's width, in multiples of asmKC
	// (sgemmAsmCols). A block wider than 512 columns — conv1, conv2,
	// every full asmNC block — gets asmKC: each packed B strip (asmKC x
	// asmNR x 4 B = 16 KiB) stays L1-resident against the twelve A rows
	// the tile reads in place. Narrower blocks go deeper and read the
	// weights in longer row runs: 16 384 at one strip (576 KiB at fc6's
	// 9 216, in L2), 8 192 at two (the 32-job dense head), 1 280 and
	// 1 024 at the 169- and 196-column convs.
	asmKC = 256
	asmNC = 1024 // multiple of asmNR

	// Int8 tile: 4 rows x 16 columns of int32 accumulators.
	asmQMR = 4
	asmQNR = 16
)

// asmSgemmOK / asmQgemmOK / asmQuantOK / asmVecOK report at runtime
// whether the float32 GEMM, int8 GEMM, activation-quantization and
// float32 vector (elementwise span, 3x3 depthwise) assembly kernels may
// be used on this CPU.
var asmSgemmOK, asmQgemmOK, asmQuantOK, asmVecOK bool

func init() {
	if os.Getenv("DNNJPS_NOASM") != "" {
		return
	}
	ok := cpuHasAVX2FMA()
	asmSgemmOK, asmQgemmOK, asmQuantOK, asmVecOK = ok, ok, ok, ok
	asmAVX512OK = ok && cpuHasAVX512()
}

// cpuHasAVX512 probes, on a host cpuHasAVX2FMA accepted (so leaf 7 and
// XGETBV exist), CPUID leaf 7 for AVX512F (EBX bit 16) and XCR0 for
// OS-saved XMM, YMM, opmask and both halves of the ZMM state (bits 1,
// 2, 5, 6 and 7).
func cpuHasAVX512() bool {
	lo, _ := xgetbvAsm()
	_, b7, _, _ := cpuidAsm(7, 0)
	return lo&0xE6 == 0xE6 && b7&(1<<16) != 0
}

// cpuHasAVX2FMA probes CPUID leaf 1 (FMA, AVX, OSXSAVE), XGETBV
// (OS-enabled XMM+YMM state) and leaf 7 (AVX2).
func cpuHasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	_, _, c1, _ := cpuidAsm(1, 0)
	if c1&osxsave == 0 || c1&avx == 0 || c1&fma == 0 {
		return false
	}
	if lo, _ := xgetbvAsm(); lo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidAsm(7, 0)
	return b7&(1<<5) != 0
}

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

//go:noescape
func sgemmTile6x16(kc int, a *float32, lda int, pb, c *float32, ldc int)

//go:noescape
func sgemmTile12x16(kc int, a *float32, lda int, pb, c *float32, ldc int)

//go:noescape
func qgemmTile4x16(kp2 int, pa, pb *int16, c *int32, ldc int)

//go:noescape
func qdotAsm(k16 int, a, x *int8) int32

//go:noescape
func quantizeSpanAsm(dst *int8, src *float32, inv, zero float64, n int)

//go:noescape
func spanAffineAsm(dst, src *float32, n int, scale, shift float32, act int)

//go:noescape
func spanActAsm(dst, src *float32, n int, act int)

//go:noescape
func spanAddAsm(dst, src *float32, n int)

//go:noescape
func dwconv3x3Asm(dst, src, w *float32, bias float32, outH, outW, pitch, stride int)

// asmTileRows is the strip height of the live tile, which sgemmAsm
// sweeps A in: 12 rows with AVX-512, else 6. (Two 6x16 calls per
// 12-row strip read 2–5 % behind 6-row strips on the AVX2 tile in
// ten alternating runs — a ragged strip of ≤ 6 rows paid a second call
// on zero rows; in 6-row strips it reads level.)
func asmTileRows() int {
	if asmAVX512OK {
		return 12
	}
	return 6
}

// asmSgemmTile runs the mr-row tile over kc steps of the strip sa (rows
// of A where Load put them, lda apart; the tile broadcasts each element
// itself) and the packed B strip pb, against the C tile at c[off] with
// row stride ldc.
func asmSgemmTile(kc, mr int, sa []float32, lda int, pb, c []float32, off, ldc int) {
	if mr == 12 {
		sgemmTile12x16(kc, &sa[0], lda, &pb[0], &c[off], ldc)
		return
	}
	sgemmTile6x16(kc, &sa[0], lda, &pb[0], &c[off], ldc)
}

// asmQgemmTile runs the int8 tile over kp2 packed k-pairs.
func asmQgemmTile(kp2 int, pa, pb []int16, c []int32, off, ldc int) {
	qgemmTile4x16(kp2, &pa[0], &pb[0], &c[off], ldc)
}

// asmQdot returns the dot product of a[0:k32] and x[0:k32]; k32 must
// be a multiple of 32.
func asmQdot(k32 int, a, x []int8) int32 {
	return qdotAsm(k32, &a[0], &x[0])
}
