// Package nn is the layer library underlying the model zoo. A layer
// decides everything the planner needs from it in one method, Infer:
// given its input shapes it returns its output shape, its FLOPs and
// its parameter count, or refuses the inputs. dag.Graph.Finalize calls
// it once per node and keeps the result; the profiler
// (internal/profile) turns the FLOPs into per-device latencies and the
// engine (internal/engine) executes a numeric forward pass for the
// subset of layers the runtime needs.
package nn

import (
	"fmt"

	"dnnjps/internal/tensor"
)

// Kind classifies a layer for cost modeling: devices have different
// effective throughput per kind (convolutions are compute-bound,
// dense layers memory-bound, pooling cheap, ...).
type Kind int

const (
	KindInput Kind = iota
	KindConv
	KindDepthwiseConv
	KindMaxPool
	KindAvgPool
	KindGlobalAvgPool
	KindDense
	KindActivation
	KindBatchNorm
	KindLRN
	KindDropout
	KindFlatten
	KindConcat
	KindAdd
	KindSoftmax
)

var kindNames = map[Kind]string{
	KindInput:         "input",
	KindConv:          "conv",
	KindDepthwiseConv: "dwconv",
	KindMaxPool:       "maxpool",
	KindAvgPool:       "avgpool",
	KindGlobalAvgPool: "gavgpool",
	KindDense:         "dense",
	KindActivation:    "act",
	KindBatchNorm:     "bn",
	KindLRN:           "lrn",
	KindDropout:       "dropout",
	KindFlatten:       "flatten",
	KindConcat:        "concat",
	KindAdd:           "add",
	KindSoftmax:       "softmax",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Size is what a layer infers from its input shapes: the output
// shape, the floating-point operations to compute it (a
// multiply-accumulate counts as two) and the number of learned
// parameters (convolution weights depend on the input channel count).
type Size struct {
	Out    tensor.Shape
	FLOPs  float64
	Params int64
}

// Layer is the common contract of all DNN layers. Inputs are the
// shapes of all incoming tensors in graph order; most layers accept
// exactly one input, Concat and Add accept several.
type Layer interface {
	// Name is a human-readable identifier, unique within a model.
	Name() string
	// Kind classifies the layer for cost modeling.
	Kind() Kind
	// Infer sizes the layer for the given inputs, or returns an error
	// when they are incompatible.
	Infer(inputs []tensor.Shape) (Size, error)
}

// one extracts the single input shape or errors.
func one(name string, inputs []tensor.Shape) (tensor.Shape, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("nn: layer %q expects exactly 1 input, got %d", name, len(inputs))
	}
	return inputs[0], nil
}

// chw extracts the single CHW input shape or errors.
func chw(name string, inputs []tensor.Shape) (tensor.Shape, error) {
	in, err := one(name, inputs)
	if err != nil {
		return nil, err
	}
	if in.Rank() != 3 {
		return nil, fmt.Errorf("nn: layer %q expects a CHW input, got %v", name, in)
	}
	return in, nil
}

// Input is the source pseudo-layer: it emits the model input tensor
// and costs nothing.
type Input struct {
	LayerName string
	Shape     tensor.Shape
}

func (l *Input) Name() string { return l.LayerName }
func (l *Input) Kind() Kind   { return KindInput }
func (l *Input) Infer(inputs []tensor.Shape) (Size, error) {
	if len(inputs) != 0 {
		return Size{}, fmt.Errorf("nn: input layer %q takes no inputs, got %d", l.LayerName, len(inputs))
	}
	return Size{Out: l.Shape.Clone()}, nil
}

// convOut computes one spatial output dimension.
func convOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}
