package tensor

import (
	"fmt"
	"math"
)

// Affine int8 quantization: a float32 value x is represented as
//
//	q = clamp(round(x/Scale) + Zero, -128, 127)
//
// and recovered as x ≈ Scale·(q − Zero). Activations use this
// asymmetric form (one Scale/Zero per tensor, chosen from a calibrated
// min/max range); weights use the symmetric special case Zero = 0 with
// one scale per output channel (see engine.Quantize). The affine form
// represents 0.0 exactly whenever the calibrated range straddles zero
// — required so that zero padding and skipped border taps quantize to
// the same value the integer kernels treat as zero.

// QParams is one tensor's quantization mapping.
type QParams struct {
	Scale float32
	Zero  int32
}

// ChooseQParams derives the int8 affine mapping covering [lo, hi]. The
// range is first widened to include 0 so that 0.0 is exactly
// representable, and degenerate ranges fall back to a unit scale. The
// derivation is deterministic: two processes calibrating on identical
// activations derive identical parameters.
func ChooseQParams(lo, hi float32) QParams {
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if hi == lo {
		return QParams{Scale: 1, Zero: 0}
	}
	scale := (float64(hi) - float64(lo)) / 255
	zero := math.Round(-128 - float64(lo)/scale)
	if zero < -128 {
		zero = -128
	}
	if zero > 127 {
		zero = 127
	}
	return QParams{Scale: float32(scale), Zero: int32(zero)}
}

// Quantize maps one float32 value to its int8 code.
func (p QParams) Quantize(x float32) int8 {
	q := math.Round(float64(x)/float64(p.Scale)) + float64(p.Zero)
	if q < -128 {
		q = -128
	}
	if q > 127 {
		q = 127
	}
	return int8(q)
}

// Dequantize recovers the float32 approximation of code q.
func (p QParams) Dequantize(q int8) float32 {
	return p.Scale * float32(int32(q)-p.Zero)
}

// QTensor is a dense int8 tensor with its affine mapping — the form a
// quantized boundary activation takes on the wire, at a quarter of the
// float32 payload.
type QTensor struct {
	Shape Shape
	Data  []int8
	QParams
}

// NewQ allocates a zero-filled quantized tensor.
func NewQ(shape Shape, p QParams) *QTensor {
	return &QTensor{Shape: shape.Clone(), Data: make([]int8, shape.Elems()), QParams: p}
}

// QuantizeInto fills dst with the int8 codes of src under p. The two
// slices must have equal length.
func QuantizeInto(dst []int8, src []float32, p QParams) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: quantize length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, x := range src {
		dst[i] = p.Quantize(x)
	}
}

// QuantizeTensor converts a float32 tensor under p.
func QuantizeTensor(t *Tensor, p QParams) *QTensor {
	q := NewQ(t.Shape, p)
	QuantizeInto(q.Data, t.Data, p)
	return q
}

// Dequantize expands the quantized tensor back to float32.
func (q *QTensor) Dequantize() *Tensor {
	t := New(q.Shape)
	for i, v := range q.Data {
		t.Data[i] = q.QParams.Dequantize(v)
	}
	return t
}

// Clone deep-copies the quantized tensor.
func (q *QTensor) Clone() *QTensor {
	out := NewQ(q.Shape, q.QParams)
	copy(out.Data, q.Data)
	return out
}
