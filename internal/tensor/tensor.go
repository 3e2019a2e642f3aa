// Package tensor provides the shape and volume algebra used throughout
// the planner. A DNN layer's communication cost is determined by the
// byte volume of the tensor crossing the cut, so shapes are the common
// currency between the layer library, the profiler, and the runtime.
package tensor

import (
	"fmt"
	"strings"
)

// DType identifies the element type of a tensor. The paper's testbed
// serializes float32 activations; quantized variants are provided for
// ablations on communication volume.
type DType int

const (
	Float32 DType = iota
	Float16
	Int8
)

// Size returns the width of one element in bytes.
func (d DType) Size() int {
	switch d {
	case Float32:
		return 4
	case Float16:
		return 2
	case Int8:
		return 1
	default:
		panic(fmt.Sprintf("tensor: unknown dtype %d", int(d)))
	}
}

func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Float16:
		return "float16"
	case Int8:
		return "int8"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Shape is a dense tensor shape in CHW order for activations
// (channels, height, width) or a single dimension for flattened
// feature vectors. Batch size is implicitly 1: the paper schedules
// individual inference jobs, never batched ones.
type Shape []int

// NewCHW builds a channels/height/width activation shape.
func NewCHW(c, h, w int) Shape { return Shape{c, h, w} }

// NewVec builds a flattened feature-vector shape.
func NewVec(n int) Shape { return Shape{n} }

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Elems returns the number of elements, or 0 for an empty shape.
func (s Shape) Elems() int {
	if len(s) == 0 {
		return 0
	}
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", s.dims()))
		}
		n *= d
	}
	return n
}

// dims is a copy of s for a panic message. Boxing s itself would let
// every shape the caller passes escape: a Shape{n} literal handed to
// Arena.Get would cost a heap allocation on every call.
func (s Shape) dims() []int { return append([]int(nil), s...) }

// Bytes returns the serialized payload size of the tensor in bytes.
func (s Shape) Bytes(d DType) int { return s.Elems() * d.Size() }

// C, H, W return the respective dimensions of a CHW shape.
// They panic on shapes of a different rank; callers that may hold
// vectors should check Rank first.
func (s Shape) C() int { s.mustCHW(); return s[0] }
func (s Shape) H() int { s.mustCHW(); return s[1] }
func (s Shape) W() int { s.mustCHW(); return s[2] }

func (s Shape) mustCHW() {
	if len(s) != 3 {
		panic(fmt.Sprintf("tensor: shape %v is not CHW", s.dims()))
	}
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, "x") + "]"
}

// Tensor is a dense float32 tensor. It backs the real inference engine
// (internal/engine) and the runtime's wire format. The planner itself
// never allocates Tensors — it works on Shapes only.
type Tensor struct {
	Shape Shape
	Data  []float32
	// home is the arena whose Get handed the tensor out, nil for a tensor
	// made any other way; see Recycle.
	home *Arena
}

// New allocates a zero-filled tensor of the given shape.
func New(shape Shape) *Tensor {
	return &Tensor{Shape: shape.Clone(), Data: make([]float32, shape.Elems())}
}

// NewFrom wraps existing data in a tensor after validating the length.
func NewFrom(shape Shape, data []float32) (*Tensor, error) {
	if len(data) != shape.Elems() {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (%d elems)",
			len(data), shape, shape.Elems())
	}
	return &Tensor{Shape: shape.Clone(), Data: data}, nil
}

// At returns the element at (c,h,w) of a CHW tensor.
func (t *Tensor) At(c, h, w int) float32 {
	return t.Data[t.index(c, h, w)]
}

// Set stores v at (c,h,w) of a CHW tensor.
func (t *Tensor) Set(c, h, w int, v float32) {
	t.Data[t.index(c, h, w)] = v
}

func (t *Tensor) index(c, h, w int) int {
	s := t.Shape
	s.mustCHW()
	if c < 0 || c >= s[0] || h < 0 || h >= s[1] || w < 0 || w >= s[2] {
		panic(fmt.Sprintf("tensor: index (%d,%d,%d) out of range for %v", c, h, w, s))
	}
	return (c*s[1]+h)*s[2] + w
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape)
	copy(out.Data, t.Data)
	return out
}

// Flatten returns a view of the tensor as a feature vector.
func (t *Tensor) Flatten() *Tensor {
	return &Tensor{Shape: NewVec(len(t.Data)), Data: t.Data}
}
