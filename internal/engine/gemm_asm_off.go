//go:build noasm || !amd64

package engine

// Assembly kernels disabled: either the noasm build tag is set or the
// target is any GOARCH but amd64 (arm64 included), which has no
// hand-written kernel. asmOK is a false constant here, so useAsm, the
// int8 and quantization dispatch, the elementwise spans of span.go and
// the 3x3 depthwise (dwPlane, the scalar loop over the same padded
// plane the vector kernel reads) compile down to the pure-Go paths —
// bit-identical to the pre-asm build — and the stub bodies below are
// unreachable.

const (
	asmMR = 6
	asmNR = 16
	asmKC = 256
	asmNC = 1024

	asmQMR = 4
	asmQNR = 16
)

const asmOK = false

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

func spanAffineAsm(dst, src *float32, n int, scale, shift float32, act int) {
	panic("engine: assembly kernels disabled in this build")
}

func spanAddAsm(dst, src *float32, n int) {
	panic("engine: assembly kernels disabled in this build")
}

func dwconv3x3Asm(dst, src, w *float32, bias float32, outH, outW, pitch, stride int) {
	panic("engine: assembly kernels disabled in this build")
}
