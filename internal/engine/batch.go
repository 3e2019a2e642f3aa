package engine

import (
	"fmt"
	"math"

	"dnnjps/internal/tensor"
)

// Cross-job batching: n equally shaped activations execute as one
// forward pass so every conv/dense layer issues a single widened SGEMM
// instead of n narrow ones. The packed layout is channel-major,
// batch-minor, spatial-last:
//
//	CHW {C,H,W} × n  →  {C·n, H, W}   data[((c·n+b)·H+h)·W+w]
//	vec {F}     × n  →  {F·n}         data[f·n+b]
//
// Two properties make this layout the right one here. First, the
// im2col patch matrix of the packed tensor is the batch-1 patch
// matrices laid side by side — B becomes (kSize × n·hw) and the conv
// is still exactly one GEMM per group, now with n·hw columns, and its
// output lands already packed. Second, each per-image output element
// accumulates the same products in the same ascending-k order as the
// batch-1 kernels (the GEMM contract in gemm.go is per-element), so
// batched outputs are bit-identical to n separate Forwards.

// batchShape scales dim 0 of a per-image shape by the batch size —
// the packed-batch shape.
func batchShape(s tensor.Shape, n int) tensor.Shape {
	if n == 1 {
		return s
	}
	out := s.Clone()
	out[0] *= n
	return out
}

// PackBatch interleaves equally shaped tensors into the packed batch
// layout. With one input the tensor is returned as-is (the layouts
// coincide at n == 1).
func PackBatch(ts []*tensor.Tensor) (*tensor.Tensor, error) {
	n := len(ts)
	if n == 0 {
		return nil, fmt.Errorf("engine: empty batch")
	}
	s := ts[0].Shape
	for i, t := range ts[1:] {
		if !t.Shape.Equal(s) {
			return nil, fmt.Errorf("engine: batch shape mismatch: input 0 is %v, input %d is %v", s, i+1, t.Shape)
		}
	}
	if n == 1 {
		return ts[0], nil
	}
	out := tensor.New(batchShape(s, n))
	c := s[0]
	plane := s.Elems() / c
	for ch := 0; ch < c; ch++ {
		for b, t := range ts {
			copy(out.Data[(ch*n+b)*plane:], t.Data[ch*plane:(ch+1)*plane])
		}
	}
	return out, nil
}

// UnpackBatch splits a packed batch-n tensor back into n per-image
// tensors.
func UnpackBatch(t *tensor.Tensor, n int) ([]*tensor.Tensor, error) {
	if n < 1 {
		return nil, fmt.Errorf("engine: batch size %d", n)
	}
	if n == 1 {
		return []*tensor.Tensor{t}, nil
	}
	if t.Shape[0]%n != 0 {
		return nil, fmt.Errorf("engine: shape %v does not hold a batch of %d", t.Shape, n)
	}
	s := t.Shape.Clone()
	s[0] /= n
	c := s[0]
	plane := s.Elems() / c
	out := make([]*tensor.Tensor, n)
	for b := range out {
		out[b] = tensor.New(s)
	}
	for ch := 0; ch < c; ch++ {
		for b, o := range out {
			copy(o.Data[ch*plane:], t.Data[(ch*n+b)*plane:(ch*n+b+1)*plane])
		}
	}
	return out, nil
}

// ArgmaxBatch returns the per-image argmax of a packed batch-n vector
// — the same ascending scan with strict > as Argmax, per image.
func ArgmaxBatch(t *tensor.Tensor, n int) []int {
	f := len(t.Data) / n
	classes := make([]int, n)
	for b := range classes {
		best, bestV := 0, float32(math.Inf(-1))
		for i := 0; i < f; i++ {
			if v := t.Data[i*n+b]; v > bestV {
				best, bestV = i, v
			}
		}
		classes[b] = best
	}
	return classes
}

// im2colGroupBatch fills dst (kSize × bt·hw, row-major) with the
// side-by-side patch matrices of packed images [b0, b0+bt): row k,
// image b0+bi occupies columns [bi·hw, (bi+1)·hw).
func im2colGroupBatch(src, dst []float32, cLo, icpg, inH, inW, kh, kw, stride, padH, padW, outH, outW, workers, n, b0, bt int) {
	rows := icpg * kh * kw
	if serialSpan(workers, rows) {
		im2colRowsBatch(0, rows, src, dst, cLo, inH, inW, kh, kw, stride, padH, padW, outH, outW, n, b0, bt)
		return
	}
	parallelFor(workers, rows, func(lo, hi int) {
		im2colRowsBatch(lo, hi, src, dst, cLo, inH, inW, kh, kw, stride, padH, padW, outH, outW, n, b0, bt)
	})
}

// im2colRowsBatch fills batched patch-matrix rows [lo, hi).
func im2colRowsBatch(lo, hi int, src, dst []float32, cLo, inH, inW, kh, kw, stride, padH, padW, outH, outW, n, b0, bt int) {
	hw := outH * outW
	bhw := bt * hw
	for k := lo; k < hi; k++ {
		c := k / (kh * kw)
		r := k % (kh * kw) / kw
		s := k % kw
		for bi := 0; bi < bt; bi++ {
			im2colRow(src, dst[k*bhw+bi*hw:k*bhw+(bi+1)*hw], ((cLo+c)*n+b0+bi)*inH*inW,
				r, s, inH, inW, stride, padH, padW, outH, outW)
		}
	}
}

// batchTileElems caps the im2col scratch of one image group so the
// patch slab the SGEMM streams stays cache-resident instead of
// materializing kSize × n·hw floats for the whole batch at once.
const batchTileElems = 1 << 21 // 8 MiB of float32

// batchTileMinCols is the column count batchTile aims for per image
// group. Each group costs the panel path one im2col pass, one
// parallelFor fork/join and one full read of the layer's weights
// (sgemmPanel streams all of A against every gemmBlockN-column panel
// of B), so the small-plane layers late in a model (14×14, 7×7) are
// grouped until one GEMM covers at least this many patch columns.
const batchTileMinCols = 512

// batchTile picks the image-group width for the retiled batched conv:
// wide enough that the group reaches batchTileMinCols columns (when the
// batch allows), narrow enough that the group scratch respects
// batchTileElems.
func batchTile(kSize, hw, n int) int {
	bt := (batchTileMinCols + hw - 1) / hw
	for bt > 1 && kSize*bt*hw > batchTileElems {
		bt--
	}
	if bt < 1 {
		bt = 1
	}
	if bt > n {
		bt = n
	}
	return bt
}

// conv2dGEMMBatch is conv2dGEMM over a packed batch, retiled across
// images: per group of the convolution, the batch is processed in image
// groups of batchTile width, each an SGEMM of
// (ocpg × kSize)·(kSize × bt·hw) whose C slab is a column window of the
// packed output (row stride n·hw). Per-element accumulation order is
// untouched by the tiling — grouping only partitions C's columns — so
// outputs stay bit-identical to n separate Forwards at any tile width.
// inShape/outShape are the per-image shapes from the graph; in is
// packed batch-n.
func conv2dGEMMBatch(arena *tensor.Arena, kern KernelPath, in *tensor.Tensor, inShape, outShape tensor.Shape, p params, kh, kw, stride, padH, padW, groups, workers, n int) *tensor.Tensor {
	out := arena.Get(batchShape(outShape, n))
	inC, inH, inW := inShape.C(), inShape.H(), inShape.W()
	outC, outH, outW := outShape.C(), outShape.H(), outShape.W()
	icpg := inC / groups
	ocpg := outC / groups
	kSize := kh * kw * icpg
	hw := outH * outW
	nhw := n * hw

	for oc := 0; oc < outC; oc++ {
		row := out.Data[oc*nhw : (oc+1)*nhw]
		var bias float32
		if p.b != nil {
			bias = p.b[oc]
		}
		for i := range row {
			row[i] = bias
		}
	}

	// For a pure 1×1 the packed group slice is already the patch
	// matrix: row ic starts at ic·n·plane and column (b, pos) sits at
	// b·plane+pos — exactly the packed data order. No scratch is
	// materialized, so no image retiling is needed either.
	pure1x1 := kh == 1 && kw == 1 && stride == 1 && padH == 0 && padW == 0

	// On the asm path the fused packer synthesizes patch windows
	// straight from the packed input — across image boundaries — so
	// the whole batch runs as one GEMM per group with no scratch; the
	// driver's own NC/KC/MC blocking replaces batchTile's image-group
	// retiling. Elementwise results stay bit-identical to n separate
	// asm Forwards (batching only relocates an element's column, and
	// SIMD lanes are independent).
	if !pure1x1 && useAsm(kern, ocpg, kSize, nhw) {
		for g := 0; g < groups; g++ {
			a := p.w[g*ocpg*kSize : (g+1)*ocpg*kSize]
			c := out.Data[g*ocpg*nhw : (g+1)*ocpg*nhw]
			pk := bPacker{
				conv: true, src: in.Data,
				inH: inH, inW: inW, kh: kh, kw: kw,
				stride: stride, padH: padH, padW: padW, outW: outW,
				cLo: g * icpg, n: n, hw: hw,
			}
			sgemmAsm(ocpg, kSize, nhw, nhw, a, pk, c, workers)
		}
		return out
	}

	if pure1x1 {
		for g := 0; g < groups; g++ {
			b := in.Data[g*icpg*n*inH*inW : (g+1)*icpg*n*inH*inW]
			a := p.w[g*ocpg*kSize : (g+1)*ocpg*kSize]
			c := out.Data[g*ocpg*nhw : (g+1)*ocpg*nhw]
			sgemmAcc(kern, ocpg, kSize, nhw, nhw, a, b, c, workers)
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
			im2colGroupBatch(in.Data, scratch, g*icpg, icpg, inH, inW, kh, kw, stride, padH, padW, outH, outW, workers, n, b0, bw)
			c := out.Data[g*ocpg*nhw+b0*hw:]
			sgemmAcc(kern, ocpg, kSize, bw*hw, nhw, a, scratch, c, workers)
		}
	}
	return out
}

// dwconv2dBatch runs the interior/border-split depthwise convolution
// over all C·n packed planes, reusing channel c's kernel for its n
// image planes.
func dwconv2dBatch(arena *tensor.Arena, in *tensor.Tensor, inShape, outShape tensor.Shape, p params, kh, kw, stride, pad, workers, n int) *tensor.Tensor {
	out := arena.Get(batchShape(outShape, n))
	inH, inW := inShape.H(), inShape.W()
	outC, outH, outW := outShape.C(), outShape.H(), outShape.W()
	ohLo, ohHi := interiorRange(inH, kh, stride, pad, outH)
	owLo, owHi := interiorRange(inW, kw, stride, pad, outW)
	if serialSpan(workers, outC*n) {
		dwBatchPlanes(0, outC*n, in.Data, out.Data, p, n, kh, kw, stride, pad,
			inH, inW, outH, outW, ohLo, ohHi, owLo, owHi)
		return out
	}
	parallelFor(workers, outC*n, func(pLo, pHi int) {
		dwBatchPlanes(pLo, pHi, in.Data, out.Data, p, n, kh, kw, stride, pad,
			inH, inW, outH, outW, ohLo, ohHi, owLo, owHi)
	})
	return out
}

// dwBatchPlanes convolves packed planes [pLo, pHi); plane pl holds
// image pl%n of channel pl/n.
func dwBatchPlanes(pLo, pHi int, src, dst []float32, p params, n, kh, kw, stride, pad,
	inH, inW, outH, outW, ohLo, ohHi, owLo, owHi int) {
	for pl := pLo; pl < pHi; pl++ {
		c := pl / n
		var bias float32
		if p.b != nil {
			bias = p.b[c]
		}
		dwPlane(src, dst, p.w, bias, pl*inH*inW, pl*outH*outW, c*kh*kw,
			kh, kw, stride, pad, inH, inW, outH, outW, ohLo, ohHi, owLo, owHi)
	}
}

func maxpoolBatch(arena *tensor.Arena, in *tensor.Tensor, inShape, outShape tensor.Shape, k, stride, pad, workers, n int) *tensor.Tensor {
	out := arena.Get(batchShape(outShape, n))
	inH, inW := inShape.H(), inShape.W()
	outC, outH, outW := outShape.C(), outShape.H(), outShape.W()
	if serialSpan(workers, outC*n) {
		maxpoolPlanes(in.Data, out.Data, 0, outC*n, inH, inW, outH, outW, k, stride, pad)
		return out
	}
	parallelFor(workers, outC*n, func(pLo, pHi int) {
		maxpoolPlanes(in.Data, out.Data, pLo, pHi, inH, inW, outH, outW, k, stride, pad)
	})
	return out
}

func avgpoolBatch(arena *tensor.Arena, in *tensor.Tensor, inShape, outShape tensor.Shape, k, stride, pad, workers, n int) *tensor.Tensor {
	out := arena.Get(batchShape(outShape, n))
	inH, inW := inShape.H(), inShape.W()
	outC, outH, outW := outShape.C(), outShape.H(), outShape.W()
	if serialSpan(workers, outC*n) {
		avgpoolPlanes(in.Data, out.Data, 0, outC*n, inH, inW, outH, outW, k, stride, pad)
		return out
	}
	parallelFor(workers, outC*n, func(pLo, pHi int) {
		avgpoolPlanes(in.Data, out.Data, pLo, pHi, inH, inW, outH, outW, k, stride, pad)
	})
	return out
}

// denseGEMMBatch widens the dense layer from a matrix-vector product
// to C (outN × n) = W (outN × inF) · X (inF × n): the packed input
// vector read as a row-major matrix is exactly X, and the packed
// output vector is exactly C. This is where batching pays most — the
// weight matrix streams through once per batch instead of once per
// job.
func denseGEMMBatch(arena *tensor.Arena, kern KernelPath, in *tensor.Tensor, p params, outN, workers, n int) *tensor.Tensor {
	out := arena.Get(tensor.NewVec(outN * n))
	inF := len(in.Data) / n
	for o := 0; o < outN; o++ {
		row := out.Data[o*n : (o+1)*n]
		var bias float32
		if p.b != nil {
			bias = p.b[o]
		}
		for i := range row {
			row[i] = bias
		}
	}
	sgemmAcc(kern, outN, inF, n, n, p.w, in.Data, out.Data, workers)
	return out
}

// lrnBatch normalizes across per-image channels: neighbors of channel
// ch for image b are the packed planes (cc·n+b).
func lrnBatch(arena *tensor.Arena, in *tensor.Tensor, size, n int) *tensor.Tensor {
	out := arena.Get(in.Shape)
	c, h, w := in.Shape.C()/n, in.Shape.H(), in.Shape.W()
	plane := h * w
	half := size / 2
	for ch := 0; ch < c; ch++ {
		lo, hi := ch-half, ch+half
		if lo < 0 {
			lo = 0
		}
		if hi >= c {
			hi = c - 1
		}
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

// flattenBatch reshapes a packed CHW batch into a packed vector batch.
// The layouts differ — (c, b, hw) vs (c·hw, b) — so a transpose is
// needed unless the spatial extent is 1 (or the input is already a
// vector), where they coincide and a view suffices.
func flattenBatch(arena *tensor.Arena, in *tensor.Tensor, n int) *tensor.Tensor {
	if in.Shape.Rank() == 1 {
		return in
	}
	hw := in.Shape.H() * in.Shape.W()
	if hw == 1 {
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

// softmaxBatch normalizes each image of a packed vector batch
// independently, scanning ascending feature index like softmax.
func softmaxBatch(arena *tensor.Arena, in *tensor.Tensor, n int) *tensor.Tensor {
	out := arena.Get(in.Shape)
	f := len(in.Data) / n
	for b := 0; b < n; b++ {
		maxV := float32(math.Inf(-1))
		for i := 0; i < f; i++ {
			if v := in.Data[i*n+b]; v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i := 0; i < f; i++ {
			e := math.Exp(float64(in.Data[i*n+b] - maxV))
			out.Data[i*n+b] = float32(e)
			sum += e
		}
		for i := 0; i < f; i++ {
			out.Data[i*n+b] = float32(float64(out.Data[i*n+b]) / sum)
		}
	}
	return out
}
