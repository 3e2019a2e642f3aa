package engine

// Integer kernels for the quantized inference path: int8 operands,
// int32 accumulation, no saturation anywhere in the middle. Unlike the
// float32 kernels, these need no accumulation-order contract — integer
// addition is associative, so any blocking or worker split produces the
// exact same int32 sums. The float32 epilogue (requantize in quant.go)
// is a single rounding per output element and is likewise
// order-independent.

// qgemmAcc computes C (int32, m×n row-major) = A (int8, m×k) · B
// (int8, k×n), overwriting C. On CPUs with the int8 assembly tile the
// packed VPMADDWD driver runs (bit-identical — integer sums are
// exact); otherwise rows are split across workers and the inner loop
// walks row pairs with k unrolled by four, the integer sibling of
// sgemmPanel's hot loop.
func qgemmAcc(m, k, n int, a, b []int8, c []int32, workers int) {
	if asmOK && m >= asmQMR && n >= asmQNR && k >= 8 {
		qgemmAsm(m, k, n, a, b, c, workers)
		return
	}
	if serialSpan(workers, m) {
		qgemmRows(0, m, k, n, a, b, c)
		return
	}
	parallelFor(workers, m, func(lo, hi int) {
		qgemmRows(lo, hi, k, n, a, b, c)
	})
}

// qgemmRows computes output rows [lo, hi) of the int8 GEMM.
func qgemmRows(lo, hi, k, n int, a, b []int8, c []int32) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		arow0 := a[i*k : i*k+k : i*k+k]
		arow1 := a[(i+1)*k:][:k:k]
		crow0 := c[i*n : i*n+n : i*n+n]
		crow1 := c[(i+1)*n:][:n:n]
		for j := range crow0 {
			crow0[j] = 0
			crow1[j] = 0
		}
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a00, a01 := int32(arow0[kk]), int32(arow0[kk+1])
			a02, a03 := int32(arow0[kk+2]), int32(arow0[kk+3])
			a10, a11 := int32(arow1[kk]), int32(arow1[kk+1])
			a12, a13 := int32(arow1[kk+2]), int32(arow1[kk+3])
			b0 := b[kk*n:][:n]
			b1 := b[(kk+1)*n:][:n]
			b2 := b[(kk+2)*n:][:n]
			b3 := b[(kk+3)*n:][:n]
			for j := range crow0 {
				e0, e1, e2, e3 := int32(b0[j]), int32(b1[j]), int32(b2[j]), int32(b3[j])
				crow0[j] += a00*e0 + a01*e1 + a02*e2 + a03*e3
				crow1[j] += a10*e0 + a11*e1 + a12*e2 + a13*e3
			}
		}
		for ; kk < k; kk++ {
			av0, av1 := int32(arow0[kk]), int32(arow1[kk])
			brow := b[kk*n:][:n]
			for j := range crow0 {
				e := int32(brow[j])
				crow0[j] += av0 * e
				crow1[j] += av1 * e
			}
		}
	}
	for ; i < hi; i++ {
		arow := a[i*k : i*k+k : i*k+k]
		crow := c[i*n : i*n+n : i*n+n]
		for j := range crow {
			crow[j] = 0
		}
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a0, a1 := int32(arow[kk]), int32(arow[kk+1])
			a2, a3 := int32(arow[kk+2]), int32(arow[kk+3])
			b0 := b[kk*n:][:n]
			b1 := b[(kk+1)*n:][:n]
			b2 := b[(kk+2)*n:][:n]
			b3 := b[(kk+3)*n:][:n]
			for j := range crow {
				crow[j] += a0*int32(b0[j]) + a1*int32(b1[j]) + a2*int32(b2[j]) + a3*int32(b3[j])
			}
		}
		for ; kk < k; kk++ {
			av := int32(arow[kk])
			brow := b[kk*n:][:n]
			for j := range crow {
				crow[j] += av * int32(brow[j])
			}
		}
	}
}

// qgemvAcc computes y (int32, m) = A (int8, m×k) · x (int8, k), rows
// split across workers. With the assembly dot kernel available each
// row runs 32 codes per step through VPMADDWD (exact, bit-identical);
// otherwise four rows are interleaved to break the dependency chain on
// the accumulators.
func qgemvAcc(m, k int, a, x []int8, y []int32, workers int) {
	if asmOK && k >= 32 {
		if serialSpan(workers, m) {
			qgemvAsmRows(0, m, k, a, x, y)
			return
		}
		parallelFor(workers, m, func(lo, hi int) {
			qgemvAsmRows(lo, hi, k, a, x, y)
		})
		return
	}
	if serialSpan(workers, m) {
		qgemvRows(0, m, k, a, x, y)
		return
	}
	parallelFor(workers, m, func(lo, hi int) {
		qgemvRows(lo, hi, k, a, x, y)
	})
}

// qgemvRows accumulates rows [lo, hi) of the int8 matrix-vector product.
func qgemvRows(lo, hi, k int, a, x []int8, y []int32) {
	xx := x[:k:k]
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := a[i*k : i*k+k : i*k+k]
		r1 := a[(i+1)*k:][:k:k]
		r2 := a[(i+2)*k:][:k:k]
		r3 := a[(i+3)*k:][:k:k]
		var v0, v1, v2, v3 int32
		for j, xv := range xx {
			e := int32(xv)
			v0 += int32(r0[j]) * e
			v1 += int32(r1[j]) * e
			v2 += int32(r2[j]) * e
			v3 += int32(r3[j]) * e
		}
		y[i], y[i+1], y[i+2], y[i+3] = v0, v1, v2, v3
	}
	for ; i < hi; i++ {
		row := a[i*k : i*k+k : i*k+k]
		var v int32
		for j, w := range row {
			v += int32(w) * int32(xx[j])
		}
		y[i] = v
	}
}
