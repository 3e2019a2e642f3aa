//go:build noasm

package engine

import "testing"

// Under the noasm tag the assembly paths must be compiled out
// entirely: asmEnabled() is a constant false, KernelAsm and KernelGEMM
// both degrade to the panel loop, and every parity test in this
// package runs in its bitwise mode — runBothKernels then asserts
// KernelGEMM == KernelAsm == KernelPanel == KernelDirect bit for bit
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
	if useAsm(KernelGEMM, 256, 1152, 256) || useAsm(KernelAsm, 256, 1152, 256) {
		t.Fatal("useAsm routed a shape to asm under the noasm build tag")
	}
	// KernelAsm stays selectable — it just routes to the panel loop.
	if k, err := ParseKernelPath("asm"); err != nil || k != KernelAsm {
		t.Fatalf("ParseKernelPath(asm) = %v, %v", k, err)
	}
}
