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
	// strip 8 KiB (L1), A block 128 KiB, B block 512 KiB (shared L2).
	asmKC = 256
	asmMC = 128 // multiple of asmMR
	asmNC = 512 // multiple of asmNR

	asmQMR = 4
	asmQNR = 16
)

var asmSgemmOK, asmQgemmOK bool

// No NEON quantize kernel yet; quantizeSpan stays scalar on arm64.
const asmQuantOK = false

func init() {
	if os.Getenv("DNNJPS_NOASM") != "" {
		return
	}
	asmSgemmOK = true
}

//go:noescape
func sgemmTile8x8(kc int, pa, pb, c *float32, ldc int)

func asmSgemmTile(kc int, pa, pb, c []float32, off, ldc int) {
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
