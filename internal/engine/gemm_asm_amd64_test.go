//go:build !noasm

package engine

import (
	"slices"
	"testing"
)

// TestAVX512ProbeSeesCPUInfo: where Linux lists avx512f — a flag it
// clears when the OS does not save the ZMM state — the engine's probe
// must find the AVX-512 tile usable. Without this a broken probe would
// put every GEMM on the AVX2 tiles, bit-identical and only slower,
// which only the gate's asm/avx2 rule (≈ 1.0 then) would show.
func TestAVX512ProbeSeesCPUInfo(t *testing.T) {
	flags := cpuInfoFlags()
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	if slices.Contains(flags, "avx512f") && !(cpuHasAVX2FMA() && cpuHasAVX512()) {
		t.Fatal("/proc/cpuinfo lists avx512f but cpuHasAVX512 says no")
	}
}
