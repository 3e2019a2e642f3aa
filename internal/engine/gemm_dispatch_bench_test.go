package engine

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// BenchmarkSgemmCrossover sweeps the column count at a fixed deep-K
// GEMM, panel loop against the packed asm driver; the auto policy
// (preferAsm has no threshold past the tile guard) rests on its
// output. The asm legs run only where the assembly path is live, so
// ratios within one run compare like with like. Where /proc/cpuinfo
// lists avx512f, the asm-avx2 legs at n >= 128 time sgemmAsm as the
// engine dispatches it against the same call pinned to the 6x16 tile of
// an AVX2-only host, alternately, in crossoverPairs pairs, and report
// the median per-pair ratio (and the least and greatest): what the
// wider tile buys. A ratio near 1 means the engine is not running it —
// a probe that misses the CPU's AVX-512 included.
func BenchmarkSgemmCrossover(b *testing.B) {
	const m, k = 256, 1152
	a := make([]float32, m*k)
	for i := range a {
		a[i] = float32(i%13) * 0.125
	}
	paired := asmOK && slices.Contains(cpuInfoFlags(), "avx512f")
	for _, n := range []int{16, 32, 64, 128, 256, 512, 1024} {
		bb := make([]float32, k*n)
		c := make([]float32, m*n)
		for i := range bb {
			bb[i] = float32(i%11) * 0.0625
		}
		macs := float64(m) * float64(k) * float64(n)
		b.Run(fmt.Sprintf("panel/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sgemmPanel(0, m, k, n, n, a, bb, c)
			}
			b.ReportMetric(macs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
		})
		asm := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sgemmAsm(m, k, n, k, n, a, bPacker{b: bb, ldb: n}, c, 1)
			}
			b.ReportMetric(macs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
		}
		if asmOK {
			b.Run(fmt.Sprintf("asm/n=%d", n), asm)
		}
		if paired && n >= 128 {
			b.Run(fmt.Sprintf("asm-avx2/n=%d", n), func(b *testing.B) {
				gemm := func() { sgemmAsm(m, k, n, k, n, a, bPacker{b: bb, ldb: n}, c, 1) }
				legs := [2]func(){gemm, func() { onAVX2Tile(gemm) }}
				calls := b.N * 1024 / n           // a leg does the same work at every width
				var ns [2][crossoverPairs]float64 // mean ns of each leg in each pair
				for p := 0; p < crossoverPairs; p++ {
					for j := 0; j < 2; j++ {
						leg := (p + j) % 2
						start := time.Now()
						for i := 0; i < calls; i++ {
							legs[leg]()
						}
						ns[leg][p] = float64(time.Since(start).Nanoseconds()) / float64(calls)
					}
				}
				ratios := make([]float64, crossoverPairs)
				for p := range ratios {
					ratios[p] = ns[0][p] / ns[1][p]
				}
				slices.Sort(ratios)
				b.ReportMetric(ratios[crossoverPairs/2], "asm/avx2")
				b.ReportMetric(ratios[0], "min-asm/avx2")
				b.ReportMetric(ratios[crossoverPairs-1], "max-asm/avx2")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(calls*crossoverPairs), "ns/op")
			})
		}
	}
}

// crossoverPairs is how many asm/avx2 pairs BenchmarkSgemmCrossover
// times at each width: enough that one disturbed pair cannot move the
// median.
const crossoverPairs = 15

// cpuInfoFlags is the CPU feature flags Linux lists in /proc/cpuinfo,
// nil where there is no such file or line: what the host has, whatever
// the engine's own probe says.
func cpuInfoFlags() []string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return nil
	}
	for _, line := range strings.Split(string(info), "\n") {
		if flags, ok := strings.CutPrefix(line, "flags"); ok {
			return strings.Fields(flags)
		}
	}
	return nil
}

// BenchmarkQgemmCrossover compares the int8 drivers the same way: the
// scalar row-pair loop against the VPMADDWD tile (where live), at the
// alexnet fc6 GEMV shape and conv-lowered matrix shapes.
func BenchmarkQgemmCrossover(b *testing.B) {
	const m, k = 256, 1152
	a := make([]int8, m*k)
	for i := range a {
		a[i] = int8(i%251 - 125)
	}
	for _, n := range []int{16, 64, 256, 1024} {
		bb := make([]int8, k*n)
		c := make([]int32, m*n)
		for i := range bb {
			bb[i] = int8(i%241 - 120)
		}
		macs := float64(m) * float64(k) * float64(n)
		b.Run(fmt.Sprintf("scalar/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qgemmRows(0, m, k, n, a, bb, c)
			}
			b.ReportMetric(macs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
		})
		if asmOK {
			b.Run(fmt.Sprintf("asm/n=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					qgemmAsm(m, k, n, a, bb, c, 1)
				}
				b.ReportMetric(macs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
			})
		}
	}
}
