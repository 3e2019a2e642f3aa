//go:build noasm

package engine

import "testing"

// Under the noasm tag the assembly paths must be compiled out
// entirely: asmEnabled() is a constant false, kernelAsm and kernelGEMM
// both degrade to the panel loop, and every parity test in this
// package runs in its bitwise mode — runBothKernels then asserts
// kernelGEMM == kernelAsm == kernelPanel == kernelDirect bit for bit
// on whole models (the pre-asm behavior of this engine).
func TestNoasmBuildDisablesAsm(t *testing.T) {
	if asmEnabled() {
		t.Fatal("asmEnabled() = true under the noasm build tag")
	}
	if asmQgemmOK {
		t.Fatal("asmQgemmOK = true under the noasm build tag")
	}
	if asmQuantOK {
		t.Fatal("asmQuantOK = true under the noasm build tag")
	}
	if useAsm(kernelGEMM, 256, 1152) || useAsm(kernelAsm, 256, 1152) {
		t.Fatal("useAsm routed a shape to asm under the noasm build tag")
	}
}
