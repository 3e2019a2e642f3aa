//go:build noasm || !amd64

package engine

// Assembly kernels disabled: either the noasm build tag is set or the
// target is any GOARCH but amd64 (arm64 included), which has no
// hand-written microkernel. asmSgemmOK and asmQgemmOK are false
// constants here, so useAsm and the dispatch in qgemm.go compile down
// to the pure-Go paths — bit-identical to the pre-asm build — and the
// stub bodies below are unreachable.

const (
	asmMR = 6
	asmNR = 16
	asmKC = 256
	asmNC = 1024

	asmQMR = 4
	asmQNR = 16
)

const (
	asmSgemmOK = false
	asmQgemmOK = false
	asmQuantOK = false
)

func asmTileRows() int { return asmMR }

func asmSgemmTile(kc, mr int, sa []float32, lda int, pb, c []float32, off, ldc int) {
	panic("engine: assembly kernels disabled in this build")
}

func asmQgemmTile(kp2 int, pa, pb []int16, c []int32, off, ldc int) {
	panic("engine: assembly kernels disabled in this build")
}

func asmQdot(k32 int, a, x []int8) int32 {
	panic("engine: assembly kernels disabled in this build")
}

func quantizeSpanAsm(dst *int8, src *float32, inv, zero float64, n int) {
	panic("engine: assembly kernels disabled in this build")
}
