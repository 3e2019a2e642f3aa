package engine

// Cache-blocked single-precision matrix multiply, the shared compute
// kernel behind the GEMM convolution and dense paths.
//
// Determinism contract: for every output element C[i][j] the products
// a[i][k]*b[k][j] are accumulated strictly in ascending k into a single
// accumulator, independent of the blocking parameters and the worker
// count. That makes the GEMM path produce the same values as the
// direct reference kernels (which walk the same products in the same
// order) and makes results reproducible across machines and
// GOMAXPROCS settings. Parallelism is over row panels of C, so each
// output element is written by exactly one goroutine.

const (
	// gemmBlockK is the K-panel height: four b rows of gemmBlockN
	// floats plus the c row chunk stay L1-resident while a panel of A
	// streams through.
	gemmBlockK = 240
	// gemmBlockN is the N-panel width in elements (3 KiB per row).
	gemmBlockN = 768
)

// sgemmAcc computes C += A·B for row-major A (m×k), B (k×n), C (m×n
// with row stride ldc ≥ n). C must be pre-initialized (zero or bias) by
// the caller. There are two drivers: the streaming panel loop below,
// which is also the bit-exact reference of the noasm build, and the
// packed SIMD assembly tile (sgemmAsm); useAsm in gemm_asm.go routes
// between them on A's shape alone, so a GEMM takes one driver at every
// n. The panel loop matches the direct kernels bit for bit; the asm
// driver keeps the same ascending-k order but fuses each multiply-add
// into one rounding, so its float32 results differ within the tolerance
// documented in gemm_asm.go.
func sgemmAcc(kern kernelPath, m, k, n, ldc int, a, b, c []float32, workers int) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if useAsm(kern, m, k) {
		sgemmAsm(m, k, n, k, ldc, a, bPacker{b: b, ldb: n}, c, workers)
		return
	}
	if serialSpan(workers, m) {
		sgemmPanel(0, m, k, n, ldc, a, b, c)
		return
	}
	parallelFor(workers, m, func(lo, hi int) {
		sgemmPanel(lo, hi, k, n, ldc, a, b, c)
	})
}

// sgemmPanel multiplies rows [lo,hi) of A into the matching rows of C.
// Loop order is jb → kb → i → k → j: a K×N panel of B is streamed over
// the whole row panel before moving on, so B panel rows are read from
// cache m times each. Rows are processed in pairs so each loaded B
// quad feeds two output rows — per-element accumulation order is
// unchanged (each row's adds stay sequential in ascending k), only the
// B-panel traffic halves. A single contiguous column (n = 1, ldc = 1)
// is the matrix-vector loop sgemvRows, in the same order per element.
func sgemmPanel(lo, hi, k, n, ldc int, a, b, c []float32) {
	if n == 1 && ldc == 1 {
		sgemvRows(lo, hi, k, a, b, c)
		return
	}
	for jb := 0; jb < n; jb += gemmBlockN {
		je := jb + gemmBlockN
		if je > n {
			je = n
		}
		for kb := 0; kb < k; kb += gemmBlockK {
			ke := kb + gemmBlockK
			if ke > k {
				ke = k
			}
			i := lo
			for ; i+2 <= hi; i += 2 {
				arow0 := a[i*k : i*k+k : i*k+k]
				arow1 := a[(i+1)*k:][:k:k]
				crow0 := c[i*ldc+jb : i*ldc+je : i*ldc+je]
				crow1 := c[(i+1)*ldc+jb:][: je-jb : je-jb]
				w := len(crow0)
				kk := kb
				for ; kk+4 <= ke; kk += 4 {
					a00, a01, a02, a03 := arow0[kk], arow0[kk+1], arow0[kk+2], arow0[kk+3]
					a10, a11, a12, a13 := arow1[kk], arow1[kk+1], arow1[kk+2], arow1[kk+3]
					b0 := b[kk*n+jb:][:w]
					b1 := b[(kk+1)*n+jb:][:w]
					b2 := b[(kk+2)*n+jb:][:w]
					b3 := b[(kk+3)*n+jb:][:w]
					// Four sequential adds per element keep the
					// per-element accumulation in ascending k (Go
					// never reassociates floating-point ops).
					for j := range crow0 {
						e0, e1, e2, e3 := b0[j], b1[j], b2[j], b3[j]
						v := crow0[j]
						v += a00 * e0
						v += a01 * e1
						v += a02 * e2
						v += a03 * e3
						crow0[j] = v
						u := crow1[j]
						u += a10 * e0
						u += a11 * e1
						u += a12 * e2
						u += a13 * e3
						crow1[j] = u
					}
				}
				for ; kk < ke; kk++ {
					av0, av1 := arow0[kk], arow1[kk]
					brow := b[kk*n+jb:][:w]
					for j := range crow0 {
						crow0[j] += av0 * brow[j]
						crow1[j] += av1 * brow[j]
					}
				}
			}
			for ; i < hi; i++ {
				arow := a[i*k : i*k+k : i*k+k]
				crow := c[i*ldc+jb : i*ldc+je : i*ldc+je]
				w := len(crow)
				kk := kb
				for ; kk+4 <= ke; kk += 4 {
					a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
					b0 := b[kk*n+jb:][:w]
					b1 := b[(kk+1)*n+jb:][:w]
					b2 := b[(kk+2)*n+jb:][:w]
					b3 := b[(kk+3)*n+jb:][:w]
					for j := range crow {
						v := crow[j]
						v += a0 * b0[j]
						v += a1 * b1[j]
						v += a2 * b2[j]
						v += a3 * b3[j]
						crow[j] = v
					}
				}
				for ; kk < ke; kk++ {
					av := arow[kk]
					brow := b[kk*n+jb:][:w]
					for j := range crow {
						crow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// sgemvRows accumulates rows [lo, hi) of y += A·x, each row's dot
// product in ascending index order — the same order as the direct dense
// kernel. Rows are walked eight at a time: each row still owns a single
// accumulator fed in ascending k (bit-identical to the one-row loop),
// but the eight independent add chains hide the FP-add latency that
// serializes a lone dot product, and each x element is loaded once per
// eight rows instead of once per row.
func sgemvRows(lo, hi, k int, a, x, y []float32) {
	xx := x[:k:k]
	i := lo
	for ; i+8 <= hi; i += 8 {
		r0 := a[i*k : i*k+k : i*k+k]
		r1 := a[(i+1)*k:][:k:k]
		r2 := a[(i+2)*k:][:k:k]
		r3 := a[(i+3)*k:][:k:k]
		r4 := a[(i+4)*k:][:k:k]
		r5 := a[(i+5)*k:][:k:k]
		r6 := a[(i+6)*k:][:k:k]
		r7 := a[(i+7)*k:][:k:k]
		v0, v1, v2, v3 := y[i], y[i+1], y[i+2], y[i+3]
		v4, v5, v6, v7 := y[i+4], y[i+5], y[i+6], y[i+7]
		for j, xv := range xx {
			v0 += r0[j] * xv
			v1 += r1[j] * xv
			v2 += r2[j] * xv
			v3 += r3[j] * xv
			v4 += r4[j] * xv
			v5 += r5[j] * xv
			v6 += r6[j] * xv
			v7 += r7[j] * xv
		}
		y[i], y[i+1], y[i+2], y[i+3] = v0, v1, v2, v3
		y[i+4], y[i+5], y[i+6], y[i+7] = v4, v5, v6, v7
	}
	for ; i < hi; i++ {
		row := a[i*k : i*k+k : i*k+k]
		v := y[i]
		for j, w := range row {
			v += w * xx[j]
		}
		y[i] = v
	}
}
