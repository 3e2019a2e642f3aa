package engine

import "dnnjps/internal/tensor"

// im2col lowering: a grouped convolution over a packed batch of n CHW
// tensors (see batch.go; n == 1 is the plain tensor) becomes, per
// group, the matrix product
//
//	C (ocpg × n·hw) = A (ocpg × kSize) · B (kSize × n·hw),  hw = outH·outW
//
// where A is the group's weight block exactly as Load lays it out
// (row k = (ic·kh + r)·kw + c) and B is the images' patch matrices side
// by side, built here with rows in the same k order. Padding positions
// hold zeros, so the GEMM accumulates the identical product sequence as
// the direct kernel's skip-out-of-bounds loop — that is what makes the
// two paths produce equal outputs.

// im2colTile fills dst (kSize × bt·hw, row-major) with the side-by-side
// patch matrices of input channels [cLo, cLo+icpg) of packed images
// [b0, b0+bt): row k, image b0+bi occupies columns [bi·hw, (bi+1)·hw).
// It is the one lowering for both element types: the float kernels pad
// with 0, the int8 path with the quantized code of 0.0 (its zero point),
// so the zero-point correction in the epilogue accounts for padding
// exactly like real activations. Rows are independent, so they are
// split across workers.
func im2colTile[T float32 | int8](src, dst []T, pad T, cLo, icpg, inH, inW, kh, kw, stride, padH, padW, outH, outW, workers, n, b0, bt int) {
	rows := icpg * kh * kw
	if serialSpan(workers, rows) {
		im2colTileRows(0, rows, src, dst, pad, cLo, inH, inW, kh, kw, stride, padH, padW, outH, outW, n, b0, bt)
		return
	}
	parallelFor(workers, rows, func(lo, hi int) {
		im2colTileRows(lo, hi, src, dst, pad, cLo, inH, inW, kh, kw, stride, padH, padW, outH, outW, n, b0, bt)
	})
}

// im2colTileRows fills patch-matrix rows [lo, hi) of one image tile.
func im2colTileRows[T float32 | int8](lo, hi int, src, dst []T, pad T, cLo, inH, inW, kh, kw, stride, padH, padW, outH, outW, n, b0, bt int) {
	hw := outH * outW
	bhw := bt * hw
	for k := lo; k < hi; k++ {
		c := k / (kh * kw)
		r := k % (kh * kw) / kw
		s := k % kw
		for bi := 0; bi < bt; bi++ {
			im2colRow(src, dst[k*bhw+bi*hw:k*bhw+(bi+1)*hw], pad, ((cLo+c)*n+b0+bi)*inH*inW,
				r, s, inH, inW, stride, padH, padW, outH, outW)
		}
	}
}

// im2colRow fills one patch-matrix row: kernel offset (r, s) of the
// input plane at flat offset chanBase — plane (c·n+b) of the packed
// tensor — one element per output position, pad where the window
// leaves the plane.
func im2colRow[T float32 | int8](src, row []T, pad T, chanBase, r, s, inH, inW, stride, padH, padW, outH, outW int) {
	idx := 0
	for oh := 0; oh < outH; oh++ {
		ih := oh*stride - padH + r
		if ih < 0 || ih >= inH {
			for i := 0; i < outW; i++ {
				row[idx] = pad
				idx++
			}
			continue
		}
		base := chanBase + ih*inW
		if stride == 1 {
			// Valid ow range is a contiguous span: pad the
			// left/right edges, copy the middle.
			wLo, wHi := padW-s, inW+padW-s
			if wLo < 0 {
				wLo = 0
			}
			if wHi > outW {
				wHi = outW
			}
			for i := 0; i < wLo; i++ {
				row[idx] = pad
				idx++
			}
			if wHi > wLo {
				copy(row[idx:idx+wHi-wLo], src[base+wLo-padW+s:])
				idx += wHi - wLo
			}
			for i := wHi; i < outW; i++ {
				row[idx] = pad
				idx++
			}
			continue
		}
		iw := s - padW
		for ow := 0; ow < outW; ow++ {
			if iw >= 0 && iw < inW {
				row[idx] = src[base+iw]
			} else {
				row[idx] = pad
			}
			idx++
			iw += stride
		}
	}
}

// seedBias fills row r of C (rows × width, contiguous) with bias[r] —
// zero when the layer has none — so the GEMM that accumulates onto C
// starts every sum at the bias, matching the direct kernels' order.
func seedBias(c, bias []float32, rows, width int) {
	for r := 0; r < rows; r++ {
		var b float32
		if bias != nil {
			b = bias[r]
		}
		row := c[r*width : (r+1)*width]
		for i := range row {
			row[i] = b
		}
	}
}

// conv2dGEMM is the grouped convolution via im2col + SGEMM over a
// packed batch of n images; outShape is the per-image output shape.
// Per group of the convolution the batch is processed in image tiles of
// batchTile width, each an SGEMM of (ocpg × kSize)·(kSize × bt·hw) whose
// C slab is a column window of the packed output (row stride n·hw).
// Tiling only partitions C's columns — per-element accumulation order is
// untouched — so each image's output is bit-identical at any n and any
// tile width.
func conv2dGEMM(arena *tensor.Arena, kern kernelPath, in *tensor.Tensor, outShape tensor.Shape, p params, kh, kw, stride, padH, padW, groups, workers, n int) *tensor.Tensor {
	out := arena.Get(batchShape(outShape, n))
	inC, inH, inW := in.Shape.C()/n, in.Shape.H(), in.Shape.W()
	outC, outH, outW := outShape.C(), outShape.H(), outShape.W()
	icpg := inC / groups
	ocpg := outC / groups
	kSize := kh * kw * icpg
	hw := outH * outW
	nhw := n * hw

	seedBias(out.Data, p.b, outC, nhw)

	// For a pure 1×1 the packed group slice is already the patch
	// matrix: row ic starts at ic·n·plane and column (b, pos) sits at
	// b·plane+pos — exactly the packed data order. No scratch is
	// materialized, so no image tiling is needed either.
	if kh == 1 && kw == 1 && stride == 1 && padH == 0 && padW == 0 {
		for g := 0; g < groups; g++ {
			b := in.Data[g*icpg*n*inH*inW : (g+1)*icpg*n*inH*inW]
			a := p.w[g*ocpg*kSize : (g+1)*ocpg*kSize]
			c := out.Data[g*ocpg*nhw : (g+1)*ocpg*nhw]
			sgemmAcc(kern, ocpg, kSize, nhw, nhw, a, b, c, workers)
		}
		return out
	}

	// On the asm path the fused packer synthesizes patch windows
	// straight from the packed input — across image boundaries — so
	// the whole batch runs as one GEMM per group with no scratch; the
	// driver's own NC/KC blocking replaces batchTile's image tiling.
	if useAsm(kern, ocpg, kSize) {
		for g := 0; g < groups; g++ {
			a := p.w[g*ocpg*kSize : (g+1)*ocpg*kSize]
			c := out.Data[g*ocpg*nhw : (g+1)*ocpg*nhw]
			pk := bPacker{
				conv: true, src: in.Data,
				inH: inH, inW: inW, kh: kh, kw: kw,
				stride: stride, padH: padH, padW: padW, outW: outW,
				cLo: g * icpg, n: n, hw: hw,
			}
			sgemmAsm(ocpg, kSize, nhw, kSize, nhw, a, pk, c, workers)
		}
		return out
	}

	bt := batchTile(kSize, hw, n)
	scratch := arena.GetSlice(kSize * bt * hw)
	defer arena.PutSlice(scratch)
	for g := 0; g < groups; g++ {
		a := p.w[g*ocpg*kSize : (g+1)*ocpg*kSize]
		for b0 := 0; b0 < n; b0 += bt {
			bw := min(bt, n-b0)
			im2colTile(in.Data, scratch, 0, g*icpg, icpg, inH, inW, kh, kw, stride, padH, padW, outH, outW, workers, n, b0, bw)
			c := out.Data[g*ocpg*nhw+b0*hw:]
			sgemmAcc(kern, ocpg, kSize, bw*hw, nhw, a, scratch, c, workers)
		}
	}
	return out
}

// denseGEMM is the fully connected layer over a packed batch of n
// vectors: C (outN × n) = W (outN × inF) · X (inF × n). The packed
// input read as a row-major matrix is exactly X and the packed output
// is exactly C, so the weight matrix streams through once per batch
// instead of once per job, on the driver a lone job (n = 1) takes too.
func denseGEMM(arena *tensor.Arena, kern kernelPath, in *tensor.Tensor, p params, outN, workers, n int) *tensor.Tensor {
	out := arena.Get(tensor.NewVec(outN * n))
	seedBias(out.Data, p.b, outN, n)
	sgemmAcc(kern, outN, len(in.Data)/n, n, n, p.w, in.Data, out.Data, workers)
	return out
}
