//go:build noasm || !amd64

package engine

import "testing"

// In an off build — the noasm tag, or any GOARCH but amd64 — the
// assembly paths must be compiled out entirely (gemm_asm_off.go):
// asmOK is a constant false, kernelAsm and kernelGEMM both degrade to
// the panel loop, and every parity test in this package runs in its
// bitwise mode — runBothKernels then asserts
// kernelGEMM == kernelAsm == kernelPanel == kernelDirect bit for bit
// on whole models (the pre-asm behavior of this engine).
func TestNoasmBuildDisablesAsm(t *testing.T) {
	if asmOK {
		t.Fatal("asmOK = true in the off build")
	}
	if useAsm(kernelGEMM, 256, 1152) || useAsm(kernelAsm, 256, 1152) {
		t.Fatal("useAsm routed a shape to asm in the off build")
	}
}
