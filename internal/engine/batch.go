package engine

import (
	"fmt"
	"math"

	"dnnjps/internal/tensor"
)

// The packed batch layout. n equally shaped activations execute as one
// forward pass so every conv/dense layer issues a single widened SGEMM
// instead of n narrow ones; every kernel in the engine addresses this
// layout and takes n as an argument. It is channel-major, batch-minor,
// spatial-last:
//
//	CHW {C,H,W} × n  →  {C·n, H, W}   data[((c·n+b)·H+h)·W+w]
//	vec {F}     × n  →  {F·n}         data[f·n+b]
//
// At n == 1 it is the plain tensor. Two properties make this layout
// the right one here. First, the im2col patch matrix of the packed
// tensor is the per-image patch matrices laid side by side — B is
// (kSize × n·hw), the conv is exactly one GEMM per group with n·hw
// columns, and its output lands already packed. Second, an image's
// output element accumulates the same products in the same ascending-k
// order whatever n is (the GEMM contract in gemm.go is per-element), so
// batched outputs are bit-identical to n separate Forwards.

// batchShape scales dim 0 of a per-image shape by the batch size —
// the packed-batch shape. The dims go in a fixed array, which stays in
// the frame of the caller batchShape is inlined into while the shape
// only goes to Arena.Get; a Clone's variable-length make would be a heap
// allocation per batched layer (TestMiddlePassAllocs). More than four
// dims still work: append moves them to the heap.
func batchShape(s tensor.Shape, n int) tensor.Shape {
	if n == 1 {
		return s
	}
	var dims [4]int
	out := append(tensor.Shape(dims[:0]), s...)
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

// ArgmaxBatch returns the argmax of image b of a packed batch-n vector
// — the same ascending scan with strict > as Argmax. It returns one
// class, not a slice of n, so reading a group's classes allocates
// nothing.
func ArgmaxBatch(t *tensor.Tensor, n, b int) int {
	best, bestV := 0, float32(math.Inf(-1))
	for i := b; i < len(t.Data); i += n {
		if v := t.Data[i]; v > bestV {
			best, bestV = i/n, v
		}
	}
	return best
}

// softmaxGap is the fast path's margin: every logit but the column's
// first maximum must sit at least this far below it.
const softmaxGap = -0x1p-19

// SoftmaxArgmaxBatch is the class of image b of a packed batch-n vector
// of logits: exactly ArgmaxBatch(softmax(logits), n, b), the class a
// classifier's softmax sink would give, without computing the
// probabilities when the answer cannot depend on them.
//
// The fast path allocates nothing. It applies when every logit of the
// column is finite and every one other than the first maximum has
// d = x − max ≤ −2^-19, d taken in the same float32 subtraction softmax
// makes; it returns that first maximum. Why that is exact: the
// maximum's exp(0) is exactly 1, while exp(d) ≤ exp(−2^-19) ≈ 1 − 2^-19
// stays below 1 − 2^-20 after math.Exp's error and the rounding to
// float32 (whose spacing under 1 is 2^-24). Both are then divided by
// the same sum ≥ 1 (the maximum's own term is in it) and rounded once
// more; a relative gap of 2^-20 is wider than the two float32 roundings
// (2^-24 relative each) can close, so every other index holds a
// strictly smaller probability and ArgmaxBatch's strict ascending scan
// lands on the maximum.
//
// Anything else — exact ties, near-ties, NaN, ±Inf — runs softmaxCol on
// the column and takes ArgmaxBatch of it, so those columns get the
// softmax's own answer (an all-NaN column is class 0).
func SoftmaxArgmaxBatch(logits *tensor.Tensor, n, b int) int {
	col := logits.Data
	best, maxV := 0, float32(math.Inf(-1))
	for i := b; i < len(col); i += n {
		v := col[i]
		if v-v != 0 { // NaN or ±Inf
			return softmaxArgmaxSlow(logits, n, b)
		}
		if v > maxV {
			best, maxV = i/n, v
		}
	}
	for i, at := b, best*n+b; i < len(col); i += n {
		if i != at && col[i]-maxV > softmaxGap {
			return softmaxArgmaxSlow(logits, n, b)
		}
	}
	return best
}

// softmaxArgmaxSlow is SoftmaxArgmaxBatch's fallback: column b copied
// out and normalized in place as a batch of one — softmaxCol's
// arithmetic in the same order, so the same probabilities — and their
// argmax. The copy is the one allocation, f floats whatever the batch.
func softmaxArgmaxSlow(logits *tensor.Tensor, n, b int) int {
	col := make([]float32, len(logits.Data)/n)
	for i := range col {
		col[i] = logits.Data[i*n+b]
	}
	softmaxCol(col, col, 1, 0)
	return ArgmaxBatch(&tensor.Tensor{Data: col}, 1, 0)
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

// batchTile picks the image-group width conv2dGEMM tiles a batch by:
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
