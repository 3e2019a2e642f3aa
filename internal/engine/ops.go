package engine

import (
	"math"

	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// Direct reference kernels, depthwise convolution and the lightweight
// elementwise/pooling ops. conv2dDirect, dwconv2dDirect and denseDirect
// are the naive single-image implementations kept behind the
// kernelDirect pin as the ground truth the GEMM path is
// parity-tested against; every other kernel takes the batch size n and
// addresses the packed layout (see batch.go). All output buffers come
// from the model's arena and every kernel writes every output element
// exactly once, so recycled (dirty) buffers are safe.

// conv2dDirect is a direct grouped convolution in CHW layout with
// per-axis padding, parallelized over output channels.
func conv2dDirect(arena *tensor.Arena, in *tensor.Tensor, outShape tensor.Shape, p params, kh, kw, stride, padH, padW, groups, workers int) *tensor.Tensor {
	out := arena.Get(outShape)
	inC, inH, inW := in.Shape.C(), in.Shape.H(), in.Shape.W()
	outC, outH, outW := outShape.C(), outShape.H(), outShape.W()
	icpg := inC / groups  // input channels per group
	ocpg := outC / groups // output channels per group
	kSize := kh * kw * icpg
	if serialSpan(workers, outC) {
		conv2dRange(in, out, p, kh, kw, stride, padH, padW, icpg, ocpg, kSize,
			inH, inW, outH, outW, 0, outC)
		return out
	}
	parallelFor(workers, outC, func(ocLo, ocHi int) {
		conv2dRange(in, out, p, kh, kw, stride, padH, padW, icpg, ocpg, kSize,
			inH, inW, outH, outW, ocLo, ocHi)
	})
	return out
}

func conv2dRange(in, out *tensor.Tensor, p params, kh, kw, stride, padH, padW, icpg, ocpg, kSize, inH, inW, outH, outW, ocLo, ocHi int) {
	for oc := ocLo; oc < ocHi; oc++ {
		grp := oc / ocpg
		wBase := oc * kSize
		var bias float32
		if p.b != nil {
			bias = p.b[oc]
		}
		for oh := 0; oh < outH; oh++ {
			ihBase := oh*stride - padH
			for ow := 0; ow < outW; ow++ {
				iwBase := ow*stride - padW
				sum := bias
				for ic := 0; ic < icpg; ic++ {
					cIn := grp*icpg + ic
					for r := 0; r < kh; r++ {
						ih := ihBase + r
						if ih < 0 || ih >= inH {
							continue
						}
						rowIn := (cIn*inH + ih) * inW
						rowW := wBase + (ic*kh+r)*kw
						for c := 0; c < kw; c++ {
							iw := iwBase + c
							if iw < 0 || iw >= inW {
								continue
							}
							sum += in.Data[rowIn+iw] * p.w[rowW+c]
						}
					}
				}
				out.Data[(oc*outH+oh)*outW+ow] = sum
			}
		}
	}
}

// dwconv2dDirect is the naive depthwise convolution (one kernel per
// channel), parallelized over channels.
func dwconv2dDirect(arena *tensor.Arena, in *tensor.Tensor, outShape tensor.Shape, p params, kh, kw, stride, pad, workers int) *tensor.Tensor {
	out := arena.Get(outShape)
	inH, inW := in.Shape.H(), in.Shape.W()
	outC, outH, outW := outShape.C(), outShape.H(), outShape.W()
	if serialSpan(workers, outC) {
		dwconv2dRange(in, out, p, kh, kw, stride, pad, inH, inW, outH, outW, 0, outC)
		return out
	}
	parallelFor(workers, outC, func(cLo, cHi int) {
		dwconv2dRange(in, out, p, kh, kw, stride, pad, inH, inW, outH, outW, cLo, cHi)
	})
	return out
}

func dwconv2dRange(in, out *tensor.Tensor, p params, kh, kw, stride, pad, inH, inW, outH, outW, cLo, cHi int) {
	for c := cLo; c < cHi; c++ {
		wBase := c * kh * kw
		var bias float32
		if p.b != nil {
			bias = p.b[c]
		}
		inBase := c * inH * inW
		for oh := 0; oh < outH; oh++ {
			ihBase := oh*stride - pad
			for ow := 0; ow < outW; ow++ {
				out.Data[(c*outH+oh)*outW+ow] = dwCell(in.Data, p.w, bias,
					inBase, ihBase, ow*stride-pad, wBase, kh, kw, inH, inW)
			}
		}
	}
}

// dwCell computes one depthwise output element with bounds checks,
// accumulating r-major then c — the order dwPlane's interior loop
// keeps. inBase is the flat offset of the input plane being convolved.
func dwCell(src, w []float32, bias float32, inBase, ihBase, iwBase, wBase, kh, kw, inH, inW int) float32 {
	sum := bias
	for r := 0; r < kh; r++ {
		ih := ihBase + r
		if ih < 0 || ih >= inH {
			continue
		}
		rowIn := inBase + ih*inW
		rowW := wBase + r*kw
		for cc := 0; cc < kw; cc++ {
			iw := iwBase + cc
			if iw < 0 || iw >= inW {
				continue
			}
			sum += src[rowIn+iw] * w[rowW+cc]
		}
	}
	return sum
}

// dwconv2d is the fast depthwise convolution over the C·n planes of a
// packed batch, channel c's kernel serving its n image planes. A 3×3
// kernel at stride 1 or 2 runs the vector kernel where the CPU has one
// (see dwPlanes); every other geometry splits each plane: output
// positions whose kernel window lies fully inside the input run a tight
// loop with no bounds checks; only the border ring pays for them. The
// accumulation order per element is identical to dwconv2dDirect on
// both, so outputs match bit for bit.
func dwconv2d(arena *tensor.Arena, in *tensor.Tensor, outShape tensor.Shape, p params, kh, kw, stride, pad, workers, n int) *tensor.Tensor {
	out := arena.Get(batchShape(outShape, n))
	planes := outShape.C() * n
	if serialSpan(workers, planes) {
		dwPlanes(arena, 0, planes, in, out, p, n, kh, kw, stride, pad)
		return out
	}
	parallelFor(workers, planes, func(pLo, pHi int) {
		dwPlanes(arena, pLo, pHi, in, out, p, n, kh, kw, stride, pad)
	})
	return out
}

// dwPlanes convolves packed planes [pLo, pHi); plane pl holds image
// b = pl%n of channel c = pl/n, stepped rather than divided per plane:
// MobileNet's late 7×7 planes are small enough for a 64-bit division
// each to show.
func dwPlanes(arena *tensor.Arena, pLo, pHi int, in, out *tensor.Tensor, p params, n, kh, kw, stride, pad int) {
	inH, inW := in.Shape.H(), in.Shape.W()
	outH, outW := out.Shape.H(), out.Shape.W()
	src, dst := in.Data, out.Data
	vec := asmVecOK && kh == 3 && kw == 3 && (stride == 1 || stride == 2)

	// Scalar split — interior range: oh*stride-pad >= 0 and
	// oh*stride-pad+kh-1 < inH (and likewise for width). Vector kernel —
	// a zero-padded copy of the plane: the border ring (24 of 49 cells
	// at 7×7) costs what the interior costs, and a tap the scalar loop
	// skips adds a ±0 product, which leaves a sum that started at +0 or
	// at a non-zero bias unchanged. Only the interior is rewritten per
	// plane, so the ring is zeroed once per call; the slack past the
	// last row is what the kernel's final partial chunk over-reads.
	var ohLo, ohHi, owLo, owHi, pitch int
	var padded []float32
	if vec {
		pitch = inW + 2*pad
		padded = arena.GetSlice((inH+2*pad)*pitch + dwOverRead)
		defer arena.PutSlice(padded)
		clear(padded)
	} else {
		ohLo, ohHi = interiorRange(inH, kh, stride, pad, outH)
		owLo, owHi = interiorRange(inW, kw, stride, pad, outW)
	}

	c, b := pLo/n, pLo%n
	for pl := pLo; pl < pHi; pl++ {
		var bias float32
		if p.b != nil {
			bias = p.b[c]
		}
		if vec {
			plane := src[pl*inH*inW : (pl+1)*inH*inW]
			for r := 0; r < inH; r++ {
				copy(padded[(r+pad)*pitch+pad:], plane[r*inW:(r+1)*inW])
			}
			// The slices are the bounds checks the assembly does not make.
			o, w := dst[pl*outH*outW:(pl+1)*outH*outW], p.w[c*9:c*9+9]
			dwconv3x3Asm(&o[0], &padded[0], &w[0], bias, outH, outW, pitch, stride)
		} else {
			dwPlane(src, dst, p.w, bias, pl*inH*inW, pl*outH*outW, c*kh*kw,
				kh, kw, stride, pad, inH, inW, outH, outW, ohLo, ohHi, owLo, owHi)
		}
		if b++; b == n {
			c, b = c+1, 0
		}
	}
}

// dwOverRead is the slack, in floats, past the padded plane: the
// stride-2 kernel's last chunk reads 18 columns from its first output's
// window, at most 15 of them beyond the final padded row.
const dwOverRead = 16

// dwPlane runs the interior/border-split depthwise convolution of one
// input plane (flat offset inBase) into one output plane (outBase)
// with the kernel at wBase.
func dwPlane(src, dst, w []float32, bias float32, inBase, outBase, wBase,
	kh, kw, stride, pad, inH, inW, outH, outW, ohLo, ohHi, owLo, owHi int) {
	borderRow := func(oh int) {
		ihBase := oh*stride - pad
		outRow := outBase + oh*outW
		for ow := 0; ow < outW; ow++ {
			dst[outRow+ow] = dwCell(src, w, bias,
				inBase, ihBase, ow*stride-pad, wBase, kh, kw, inH, inW)
		}
	}
	for oh := 0; oh < ohLo; oh++ {
		borderRow(oh)
	}
	for oh := ohHi; oh < outH; oh++ {
		borderRow(oh)
	}
	for oh := ohLo; oh < ohHi; oh++ {
		ihBase := oh*stride - pad
		outRow := outBase + oh*outW
		for ow := 0; ow < owLo; ow++ {
			dst[outRow+ow] = dwCell(src, w, bias,
				inBase, ihBase, ow*stride-pad, wBase, kh, kw, inH, inW)
		}
		for ow := owHi; ow < outW; ow++ {
			dst[outRow+ow] = dwCell(src, w, bias,
				inBase, ihBase, ow*stride-pad, wBase, kh, kw, inH, inW)
		}
		for ow := owLo; ow < owHi; ow++ {
			iwBase := ow*stride - pad
			sum := bias
			for r := 0; r < kh; r++ {
				base := inBase + (ihBase+r)*inW + iwBase
				srow := src[base : base+kw : base+kw]
				wRow := w[wBase+r*kw:][:kw]
				for cc, wv := range wRow {
					sum += srow[cc] * wv
				}
			}
			dst[outRow+ow] = sum
		}
	}
}

// interiorRange returns the [lo, hi) span of output positions whose
// kernel window is fully in bounds along one axis.
func interiorRange(inDim, k, stride, pad, outDim int) (lo, hi int) {
	lo = (pad + stride - 1) / stride
	hi = (inDim-k+pad)/stride + 1
	if lo > outDim {
		lo = outDim
	}
	if hi > outDim {
		hi = outDim
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// planePool is the arithmetic of one pooling kind over one plane:
// maxpoolPlane or avgpoolPlane.
type planePool func(src, dst []float32, inH, inW, outH, outW, k, stride, pad int)

// pool2d pools each of the C·n planes of a packed batch on its own.
func pool2d(arena *tensor.Arena, in *tensor.Tensor, outShape tensor.Shape, k, stride, pad, workers, n int, plane planePool) *tensor.Tensor {
	out := arena.Get(batchShape(outShape, n))
	inH, inW := in.Shape.H(), in.Shape.W()
	planes, outH, outW := outShape.C()*n, outShape.H(), outShape.W()
	if serialSpan(workers, planes) {
		poolPlanes(plane, in.Data, out.Data, 0, planes, inH, inW, outH, outW, k, stride, pad)
		return out
	}
	parallelFor(workers, planes, func(pLo, pHi int) {
		poolPlanes(plane, in.Data, out.Data, pLo, pHi, inH, inW, outH, outW, k, stride, pad)
	})
	return out
}

// poolPlanes pools planes [pLo, pHi).
func poolPlanes(plane planePool, src, dst []float32, pLo, pHi, inH, inW, outH, outW, k, stride, pad int) {
	for pl := pLo; pl < pHi; pl++ {
		plane(src[pl*inH*inW:], dst[pl*outH*outW:],
			inH, inW, outH, outW, k, stride, pad)
	}
}

// maxpoolPlane pools one plane; src/dst are the plane-offset slices.
func maxpoolPlane(src, dst []float32, inH, inW, outH, outW, k, stride, pad int) {
	for oh := 0; oh < outH; oh++ {
		for ow := 0; ow < outW; ow++ {
			best := float32(math.Inf(-1))
			for r := 0; r < k; r++ {
				ih := oh*stride - pad + r
				if ih < 0 || ih >= inH {
					continue
				}
				for cc := 0; cc < k; cc++ {
					iw := ow*stride - pad + cc
					if iw < 0 || iw >= inW {
						continue
					}
					if v := src[ih*inW+iw]; v > best {
						best = v
					}
				}
			}
			dst[oh*outW+ow] = best
		}
	}
}

// avgpoolPlane pools one plane; src/dst are the plane-offset slices.
func avgpoolPlane(src, dst []float32, inH, inW, outH, outW, k, stride, pad int) {
	for oh := 0; oh < outH; oh++ {
		for ow := 0; ow < outW; ow++ {
			var sum float32
			count := 0
			for r := 0; r < k; r++ {
				ih := oh*stride - pad + r
				if ih < 0 || ih >= inH {
					continue
				}
				for cc := 0; cc < k; cc++ {
					iw := ow*stride - pad + cc
					if iw < 0 || iw >= inW {
						continue
					}
					sum += src[ih*inW+iw]
					count++
				}
			}
			v := float32(0)
			if count > 0 {
				v = sum / float32(count)
			}
			dst[oh*outW+ow] = v
		}
	}
}

func globalAvgPool(arena *tensor.Arena, in *tensor.Tensor) *tensor.Tensor {
	c, h, w := in.Shape.C(), in.Shape.H(), in.Shape.W()
	out := arena.Get(tensor.NewVec(c))
	plane := h * w
	for ch := 0; ch < c; ch++ {
		var sum float32
		base := ch * plane
		for i := 0; i < plane; i++ {
			sum += in.Data[base+i]
		}
		out.Data[ch] = sum / float32(plane)
	}
	return out
}

// denseDirect is the serial reference matrix-vector product.
func denseDirect(arena *tensor.Arena, in *tensor.Tensor, p params, outN int) *tensor.Tensor {
	out := arena.Get(tensor.NewVec(outN))
	inN := len(in.Data)
	for o := 0; o < outN; o++ {
		var sum float32
		if p.b != nil {
			sum = p.b[o]
		}
		row := o * inN
		for i := 0; i < inN; i++ {
			sum += p.w[row+i] * in.Data[i]
		}
		out.Data[o] = sum
	}
	return out
}

// activate applies the function elementwise. With inPlace it mutates
// the input buffer and returns a view of it — Execute grants that only
// when the input is an arena tensor about to die with no other
// references.
func activate(arena *tensor.Arena, in *tensor.Tensor, fn nn.ActFunc, inPlace bool) *tensor.Tensor {
	out := in
	if !inPlace {
		out = arena.Get(in.Shape)
	}
	switch fn {
	case nn.ReLU:
		actSpan(out.Data, in.Data, spanReLU)
	case nn.ReLU6:
		actSpan(out.Data, in.Data, spanReLU6)
	case nn.Sigmoid:
		for i, v := range in.Data {
			out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	case nn.Tanh:
		for i, v := range in.Data {
			out.Data[i] = float32(math.Tanh(float64(v)))
		}
	}
	return out
}

// batchNorm folds the per-channel scale/shift, then applies act — the
// clamp of the ReLU/ReLU6 node that is this node's only consumer, when
// Execute fused the two (see fusedAct); spanNoAct otherwise. The packed
// batch layout keeps the n planes of one image channel contiguous, so
// batch n just widens each channel's span from h·w to n·h·w elements.
// inPlace is the grant activate has: mutate the dying input buffer and
// return a view of it.
func batchNorm(arena *tensor.Arena, in *tensor.Tensor, p params, n int, act spanAct, inPlace bool) *tensor.Tensor {
	out := in
	if !inPlace {
		out = arena.Get(in.Shape)
	}
	c, h, w := in.Shape.C()/n, in.Shape.H(), in.Shape.W()
	plane := h * w * n
	for ch := 0; ch < c; ch++ {
		base := ch * plane
		affineSpan(out.Data[base:base+plane], in.Data[base:base+plane], p.w[ch], p.b[ch], act)
	}
	return out
}

// lrn implements AlexNet-style local response normalization across
// channels with the standard constants (k=2, alpha=1e-4, beta=0.75).
// The neighbors of channel ch for image b are the packed planes
// (cc·n+b).
func lrn(arena *tensor.Arena, in *tensor.Tensor, size, n int) *tensor.Tensor {
	out := arena.Get(in.Shape)
	c, h, w := in.Shape.C()/n, in.Shape.H(), in.Shape.W()
	plane := h * w
	half := size / 2
	for ch := 0; ch < c; ch++ {
		lo, hi := max(ch-half, 0), min(ch+half, c-1)
		for b := 0; b < n; b++ {
			base := (ch*n + b) * plane
			for i := 0; i < plane; i++ {
				var sq float64
				for cc := lo; cc <= hi; cc++ {
					v := float64(in.Data[(cc*n+b)*plane+i])
					sq += v * v
				}
				denom := math.Pow(2+1e-4*sq, 0.75)
				out.Data[base+i] = float32(float64(in.Data[base+i]) / denom)
			}
		}
	}
	return out
}

// flatten reshapes a packed CHW batch into a packed vector batch. The
// layouts — (c, b, hw) vs (c·hw, b) — coincide at n == 1 and at spatial
// extent 1, where the result is a view of the input's buffer; otherwise
// a transpose through the arena is needed.
func flatten(arena *tensor.Arena, in *tensor.Tensor, n int) *tensor.Tensor {
	if in.Shape.Rank() == 1 {
		return in
	}
	hw := in.Shape.H() * in.Shape.W()
	if n == 1 || hw == 1 {
		return in.Flatten()
	}
	c := in.Shape.C() / n
	out := arena.Get(tensor.NewVec(c * hw * n))
	for ch := 0; ch < c; ch++ {
		for b := 0; b < n; b++ {
			src := in.Data[(ch*n+b)*hw:][:hw]
			for i, v := range src {
				out.Data[(ch*hw+i)*n+b] = v
			}
		}
	}
	return out
}

func concat(arena *tensor.Arena, ins []*tensor.Tensor, outShape tensor.Shape) *tensor.Tensor {
	out := arena.Get(outShape)
	off := 0
	for _, in := range ins {
		copy(out.Data[off:], in.Data)
		off += len(in.Data)
	}
	return out
}

// add sums the inputs. With inPlace it accumulates into ins[0]'s
// buffer (granted by Execute only when that buffer is dying and
// unshared — which also rules out any other input aliasing it).
func add(arena *tensor.Arena, ins []*tensor.Tensor, inPlace bool) *tensor.Tensor {
	out := ins[0]
	if !inPlace {
		out = arena.Get(ins[0].Shape)
		copy(out.Data, ins[0].Data)
	}
	for _, in := range ins[1:] {
		addSpan(out.Data, in.Data)
	}
	return out
}

// softmax normalizes each image of a packed vector batch independently,
// scanning ascending feature index.
func softmax(arena *tensor.Arena, in *tensor.Tensor, n int) *tensor.Tensor {
	out := arena.Get(in.Shape)
	for b := 0; b < n; b++ {
		softmaxCol(in.Data, out.Data, n, b)
	}
	return out
}

// softmaxCol normalizes image b of a packed batch-n vector, in into
// out: the shift by the column's maximum, the exponentials summed in
// float64, then one division each. It is the one softmax arithmetic,
// shared by the op and SoftmaxArgmaxBatch's fallback. in and out may be
// one slice: each element is read before it is overwritten.
func softmaxCol(in, out []float32, n, b int) {
	f := len(in) / n
	maxV := float32(math.Inf(-1))
	for i := 0; i < f; i++ {
		if v := in[i*n+b]; v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i := 0; i < f; i++ {
		e := math.Exp(float64(in[i*n+b] - maxV))
		out[i*n+b] = float32(e)
		sum += e
	}
	for i := 0; i < f; i++ {
		out[i*n+b] = float32(float64(out[i*n+b]) / sum)
	}
}
