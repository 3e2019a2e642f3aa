package engine

import "dnnjps/internal/tensor"

// im2col lowering: a grouped convolution over a CHW tensor becomes,
// per group, the matrix product
//
//	C (ocpg × outH·outW) = A (ocpg × kSize) · B (kSize × outH·outW)
//
// where A is the group's weight block exactly as Load lays it out
// (row k = (ic·kh + r)·kw + c) and B is the patch matrix built here
// with rows in the same k order. Padding positions hold zeros, so the
// GEMM accumulates the identical product sequence as the direct
// kernel's skip-out-of-bounds loop — that is what makes the two paths
// produce equal outputs.

// im2colGroup fills dst (kSize × outH·outW, row-major) with the patch
// matrix of input channels [cLo, cLo+icpg). Rows are independent, so
// they are split across workers.
func im2colGroup(src, dst []float32, cLo, icpg, inH, inW, kh, kw, stride, padH, padW, outH, outW, workers int) {
	rows := icpg * kh * kw
	if serialSpan(workers, rows) {
		im2colRows(0, rows, src, dst, cLo, inH, inW, kh, kw, stride, padH, padW, outH, outW)
		return
	}
	parallelFor(workers, rows, func(lo, hi int) {
		im2colRows(lo, hi, src, dst, cLo, inH, inW, kh, kw, stride, padH, padW, outH, outW)
	})
}

// im2colRows fills patch-matrix rows [lo, hi).
func im2colRows(lo, hi int, src, dst []float32, cLo, inH, inW, kh, kw, stride, padH, padW, outH, outW int) {
	hw := outH * outW
	for k := lo; k < hi; k++ {
		c := k / (kh * kw)
		r := k % (kh * kw) / kw
		s := k % kw
		im2colRow(src, dst[k*hw:(k+1)*hw], (cLo+c)*inH*inW,
			r, s, inH, inW, stride, padH, padW, outH, outW)
	}
}

// im2colRow fills one patch-matrix row: kernel offset (r, s) of the
// input plane at flat offset chanBase, one element per output
// position. The batched lowering reuses it with plane (c·n+b).
func im2colRow(src, row []float32, chanBase, r, s, inH, inW, stride, padH, padW, outH, outW int) {
	idx := 0
	for oh := 0; oh < outH; oh++ {
		ih := oh*stride - padH + r
		if ih < 0 || ih >= inH {
			for i := 0; i < outW; i++ {
				row[idx] = 0
				idx++
			}
			continue
		}
		base := chanBase + ih*inW
		if stride == 1 {
			// Valid ow range is a contiguous span: zero the
			// left/right padding edges, copy the middle.
			wLo, wHi := padW-s, inW+padW-s
			if wLo < 0 {
				wLo = 0
			}
			if wHi > outW {
				wHi = outW
			}
			for i := 0; i < wLo; i++ {
				row[idx] = 0
				idx++
			}
			if wHi > wLo {
				copy(row[idx:idx+wHi-wLo], src[base+wLo-padW+s:])
				idx += wHi - wLo
			}
			for i := wHi; i < outW; i++ {
				row[idx] = 0
				idx++
			}
			continue
		}
		iw := s - padW
		for ow := 0; ow < outW; ow++ {
			if iw >= 0 && iw < inW {
				row[idx] = src[base+iw]
			} else {
				row[idx] = 0
			}
			idx++
			iw += stride
		}
	}
}

// conv2dGEMM is the grouped convolution via im2col + SGEMM. 1×1
// stride-1 unpadded convolutions skip the lowering entirely: their
// patch matrix is the input itself.
func conv2dGEMM(arena *tensor.Arena, kern KernelPath, in *tensor.Tensor, outShape tensor.Shape, p params, kh, kw, stride, padH, padW, groups, workers int) *tensor.Tensor {
	out := arena.Get(outShape)
	inC, inH, inW := in.Shape.C(), in.Shape.H(), in.Shape.W()
	outC, outH, outW := outShape.C(), outShape.H(), outShape.W()
	icpg := inC / groups
	ocpg := outC / groups
	kSize := kh * kw * icpg
	hw := outH * outW

	// Seed C with the bias so the GEMM accumulates onto it, matching
	// the direct kernel's sum-starts-at-bias order.
	for oc := 0; oc < outC; oc++ {
		row := out.Data[oc*hw : (oc+1)*hw]
		var bias float32
		if p.b != nil {
			bias = p.b[oc]
		}
		for i := range row {
			row[i] = bias
		}
	}

	pure1x1 := kh == 1 && kw == 1 && stride == 1 && padH == 0 && padW == 0

	// The asm driver packs B panels straight from the input tensor
	// (fused im2col) — the kSize×hw patch matrix is never materialized.
	if useAsm(kern, ocpg, kSize, hw) {
		for g := 0; g < groups; g++ {
			a := p.w[g*ocpg*kSize : (g+1)*ocpg*kSize]
			c := out.Data[g*ocpg*hw : (g+1)*ocpg*hw]
			pk := bPacker{
				conv: true, src: in.Data,
				inH: inH, inW: inW, kh: kh, kw: kw,
				stride: stride, padH: padH, padW: padW, outW: outW,
				cLo: g * icpg, n: 1, hw: hw,
			}
			if pure1x1 {
				// The group's input planes already are the patch matrix.
				pk = bPacker{b: in.Data[g*icpg*inH*inW : (g+1)*icpg*inH*inW], ldb: hw}
			}
			sgemmAsm(ocpg, kSize, hw, hw, a, pk, c, workers)
		}
		return out
	}

	var scratch []float32
	if !pure1x1 {
		scratch = arena.GetSlice(kSize * hw)
		defer arena.PutSlice(scratch)
	}
	for g := 0; g < groups; g++ {
		b := scratch
		if pure1x1 {
			b = in.Data[g*icpg*inH*inW : (g+1)*icpg*inH*inW]
		} else {
			im2colGroup(in.Data, scratch, g*icpg, icpg, inH, inW, kh, kw, stride, padH, padW, outH, outW, workers)
		}
		a := p.w[g*ocpg*kSize : (g+1)*ocpg*kSize]
		c := out.Data[g*ocpg*hw : (g+1)*ocpg*hw]
		sgemmAcc(kern, ocpg, kSize, hw, hw, a, b, c, workers)
	}
	return out
}

// denseGEMM is the fully connected layer as a worker-parallel
// matrix-vector product through the shared kernel.
func denseGEMM(arena *tensor.Arena, in *tensor.Tensor, p params, outN, workers int) *tensor.Tensor {
	out := arena.Get(tensor.NewVec(outN))
	var bias float32
	for o := 0; o < outN; o++ {
		if p.b != nil {
			bias = p.b[o]
		}
		out.Data[o] = bias
	}
	sgemvAcc(outN, len(in.Data), p.w, in.Data, out.Data, workers)
	return out
}
