//go:build !noasm

package engine

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX512ProbeSeesCPUInfo: where Linux lists avx512f — a flag it
// clears when the OS does not save the ZMM state — the engine's probe
// must find the AVX-512 tile usable. Without this a broken probe would
// put every GEMM on the AVX2 tiles, bit-identical and only slower, and
// the gate's asm-over-avx2 rule would skip instead of failing.
func TestAVX512ProbeSeesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo")
	}
	for _, line := range strings.Split(string(info), "\n") {
		flags, ok := strings.CutPrefix(line, "flags")
		if !ok {
			continue
		}
		if slices.Contains(strings.Fields(flags), "avx512f") && !(cpuHasAVX2FMA() && cpuHasAVX512()) {
			t.Fatal("/proc/cpuinfo lists avx512f but cpuHasAVX512 says no")
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
