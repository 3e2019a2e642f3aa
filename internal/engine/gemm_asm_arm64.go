//go:build !noasm

package engine

import "os"

// NEON assembly gating for arm64. Advanced SIMD is baseline on
// AArch64, so there is no runtime feature probe — only the noasm
// build tag and the DNNJPS_NOASM escape hatch disable the kernel. The
// int8 VPMADDWD-style path has no NEON implementation yet; quantized
// layers fall back to the scalar kernels (which the compiler already
// contracts reasonably on this architecture).

const (
	// 8x8 tile: sixteen 4-lane accumulators, two B halves, two A
	// quads and eight broadcast registers fill the 32 NEON registers.
	asmMR = 8
	asmNR = 8

	// Blocking assumes a mobile-class cache hierarchy: packed B
	// strip 8 KiB and packed A strip 8 KiB (L1), B block 512 KiB
	// (shared L2).
	asmKC = 256
	asmNC = 512 // multiple of asmNR

	// The NEON tile keeps its packed-strip contract: the driver lends
	// asmStripA one strip of scratch.
	asmStripScratch = asmMR * asmKC

	asmQMR = 4
	asmQNR = 16
)

var asmSgemmOK, asmQgemmOK bool

// No NEON quantize kernel yet; quantizeSpan stays scalar on arm64. (Nor
// span or depthwise kernels: vec_asm_off.go.)
const asmQuantOK = false

func init() {
	if os.Getenv("DNNJPS_NOASM") != "" {
		return
	}
	asmSgemmOK = true
}

//go:noescape
func sgemmTile8x8(kc int, pa, pb, c *float32, ldc int)

// asmStripA is the driver's per-strip hook: the NEON tile streams A
// from a k-major strip, so the asmMR rows the driver is about to sweep
// (kc floats each, lda apart) are packed into its scratch here —
// a[r][kk] at scratch[kk*asmMR + r] — once per strip and K panel, the
// same total work as packing whole blocks up front.
func asmStripA(kc int, a []float32, lda int, scratch []float32) ([]float32, int) {
	for r := 0; r < asmMR; r++ {
		di := r
		for _, v := range a[r*lda : r*lda+kc] {
			scratch[di] = v
			di += asmMR
		}
	}
	return scratch, asmMR
}

// asmTileRows is the strip height sgemmAsm sweeps A in: the one tile's.
func asmTileRows() int { return asmMR }

// asmSgemmTile runs the tile on the packed strips pa (from asmStripA;
// its stride is fixed by the layout) and pb.
func asmSgemmTile(kc, _ int, pa []float32, _ int, pb, c []float32, off, ldc int) {
	sgemmTile8x8(kc, &pa[0], &pb[0], &c[off], ldc)
}

func asmQgemmTile(kp2 int, pa, pb []int16, c []int32, off, ldc int) {
	panic("engine: int8 assembly tile unavailable on arm64")
}

func asmQdot(k32 int, a, x []int8) int32 {
	panic("engine: int8 assembly dot unavailable on arm64")
}

func quantizeSpanAsm(dst *int8, src *float32, inv, zero float64, n int) {
	panic("engine: quantize kernel unavailable on arm64")
}
