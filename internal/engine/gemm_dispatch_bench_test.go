package engine

import (
	"fmt"
	"testing"
)

// BenchmarkSgemmCrossover sweeps the column count at a fixed deep-K
// GEMM, panel loop against the packed asm driver; the auto policy
// (preferAsm has no threshold past the tile guard) rests on its
// output. The asm legs run only where the assembly path is live, so
// ratios within one run compare like with like. Where sgemmAsm runs
// the AVX-512 tile, the avx2 legs run it again pinned to the 6x16 tile
// of an AVX2-only host: asm over avx2 is what the wider tile buys, and
// a ratio near 1 means it is not running.
func BenchmarkSgemmCrossover(b *testing.B) {
	const m, k = 256, 1152
	a := make([]float32, m*k)
	for i := range a {
		a[i] = float32(i%13) * 0.125
	}
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
		if asmEnabled() {
			b.Run(fmt.Sprintf("asm/n=%d", n), asm)
		}
		if asmAVX512OK {
			b.Run(fmt.Sprintf("avx2/n=%d", n), func(b *testing.B) { onAVX2Tile(func() { asm(b) }) })
		}
	}
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
		if asmQgemmOK {
			b.Run(fmt.Sprintf("asm/n=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					qgemmAsm(m, k, n, a, bb, c, 1)
				}
				b.ReportMetric(macs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
			})
		}
	}
}
