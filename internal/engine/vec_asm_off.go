//go:build noasm || !amd64

package engine

// The float32 vector kernels outside the GEMM — elementwise spans
// (span_avx2_amd64.s) and 3x3 depthwise (dwconv_avx2_amd64.s) — exist
// for amd64 only. Everywhere else asmVecOK is a false constant, the Go
// loops in span.go and dwPlane (the scalar loop over the same padded
// plane the vector kernel reads) are the implementation, and the stubs
// below are unreachable.

const asmVecOK = false

func spanAffineAsm(dst, src *float32, n int, scale, shift float32, act int) {
	panic("engine: vector kernels unavailable in this build")
}

func spanActAsm(dst, src *float32, n int, act int) {
	panic("engine: vector kernels unavailable in this build")
}

func spanAddAsm(dst, src *float32, n int) {
	panic("engine: vector kernels unavailable in this build")
}

func dwconv3x3Asm(dst, src, w *float32, bias float32, outH, outW, pitch, stride int) {
	panic("engine: vector kernels unavailable in this build")
}
