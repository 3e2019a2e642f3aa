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
// accumulating r-major then c from the bias — the order dwPlane and the
// vector kernel keep. inBase is the flat offset of the input plane
// being convolved.
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
// packed batch, channel c's kernel serving its n image planes. Every
// plane is convolved from a zero-padded copy (see dwPlanes): a 3×3
// kernel at stride 1 or 2 runs the vector kernel where the CPU has
// one, every other geometry dwPlane. Both accumulate in dwCell's
// order, so outputs match dwconv2dDirect bit for bit.
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
//
// Each plane is copied into a zero-padded scratch plane (dwPadded), so
// the kernels make no bounds checks: the border ring (24 of 49 cells
// at 7×7) costs what the interior costs, and a tap dwCell skips adds a
// ±0 product, which leaves a sum that started at +0 or at a non-zero
// bias unchanged. Only the interior is rewritten per plane, so the
// ring is zeroed once per call; the slack past the last row is what
// the vector kernel's final partial chunk over-reads.
func dwPlanes(arena *tensor.Arena, pLo, pHi int, in, out *tensor.Tensor, p params, n, kh, kw, stride, pad int) {
	inH, inW := in.Shape.H(), in.Shape.W()
	outH, outW := out.Shape.H(), out.Shape.W()
	src, dst := in.Data, out.Data
	vec := asmOK && kh == 3 && kw == 3 && (stride == 1 || stride == 2)

	rows, pitch := dwPadded(inH, inW, outH, outW, kh, kw, stride, pad)
	padded := arena.GetSlice(rows*pitch + dwOverRead)
	defer arena.PutSlice(padded)
	clear(padded)

	c, b := pLo/n, pLo%n
	for pl := pLo; pl < pHi; pl++ {
		var bias float32
		if p.b != nil {
			bias = p.b[c]
		}
		plane := src[pl*inH*inW : (pl+1)*inH*inW]
		for r := 0; r < inH; r++ {
			copy(padded[(r+pad)*pitch+pad:], plane[r*inW:(r+1)*inW])
		}
		// The slices are the bounds checks the assembly does not make.
		o, w := dst[pl*outH*outW:(pl+1)*outH*outW], p.w[c*kh*kw:(c+1)*kh*kw]
		if vec {
			dwconv3x3Asm(&o[0], &padded[0], &w[0], bias, outH, outW, pitch, stride)
		} else {
			dwPlane(o, padded, w, bias, outH, outW, pitch, kh, kw, stride)
		}
		if b++; b == n {
			c, b = c+1, 0
		}
	}
}

// dwPadded returns the rows and row pitch of the padded plane both
// depthwise kernels read: the input with pad on every side, or as far
// as the windows reach where that is further. Only a plane smaller
// than the kernel at stride 2 or more needs that: convOut truncates
// toward zero, so it keeps one window there that overhangs the pad.
func dwPadded(inH, inW, outH, outW, kh, kw, stride, pad int) (rows, pitch int) {
	return max(inH+2*pad, (outH-1)*stride+kh), max(inW+2*pad, (outW-1)*stride+kw)
}

// dwOverRead is the slack, in floats, past the padded plane: the
// stride-2 kernel's last chunk reads 18 columns from its first output's
// window, at most 15 of them beyond the final padded row.
const dwOverRead = 16

// dwPlane convolves one zero-padded plane (row pitch pitch) into o with
// the kh×kw kernel w, in dwCell's order: r-major then c, from the bias.
func dwPlane(o, padded, w []float32, bias float32, outH, outW, pitch, kh, kw, stride int) {
	for oh := 0; oh < outH; oh++ {
		top := oh * stride * pitch
		orow := o[oh*outW : (oh+1)*outW]
		for ow := range orow {
			sum := bias
			for r := 0; r < kh; r++ {
				base := top + r*pitch + ow*stride
				srow := padded[base : base+kw : base+kw]
				for cc, wv := range w[r*kw : (r+1)*kw] {
					sum += srow[cc] * wv
				}
			}
			orow[ow] = sum
		}
	}
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
// references. ReLU and ReLU6 are the affine span at scale 1, shift 0:
// v*1 + 0 is v to the bit for every v but -0, which becomes +0 (both
// clamps send it there anyway), and a signalling NaN, which comes out
// quiet as from any arithmetic — no kernel of the engine makes one.
func activate(arena *tensor.Arena, in *tensor.Tensor, fn nn.ActFunc, inPlace bool) *tensor.Tensor {
	out := in
	if !inPlace {
		out = arena.Get(in.Shape)
	}
	switch fn {
	case nn.ReLU:
		affineSpan(out.Data, in.Data, 1, 0, spanReLU)
	case nn.ReLU6:
		affineSpan(out.Data, in.Data, 1, 0, spanReLU6)
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
