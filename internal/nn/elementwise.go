package nn

import (
	"fmt"

	"dnnjps/internal/tensor"
)

// ActFunc enumerates the supported activation functions.
type ActFunc int

const (
	ReLU ActFunc = iota
	ReLU6
	Sigmoid
	Tanh
)

func (a ActFunc) String() string {
	switch a {
	case ReLU:
		return "relu"
	case ReLU6:
		return "relu6"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("act(%d)", int(a))
	}
}

// elementwise is the shared base of 1-input, shape-preserving layers:
// it names and sizes them.
type elementwise struct {
	LayerName    string
	flopsPerElem float64
}

func (l *elementwise) Name() string { return l.LayerName }

func (l *elementwise) Infer(inputs []tensor.Shape) (Size, error) {
	in, err := one(l.LayerName, inputs)
	if err != nil {
		return Size{}, err
	}
	return Size{Out: in.Clone(), FLOPs: l.flopsPerElem * float64(in.Elems())}, nil
}

// Activation applies a pointwise nonlinearity.
type Activation struct {
	elementwise
	Func ActFunc
}

// NewActivation builds an activation layer.
func NewActivation(name string, fn ActFunc) *Activation {
	per := 1.0
	if fn == Sigmoid || fn == Tanh {
		per = 4 // exp evaluation is several ops
	}
	return &Activation{elementwise{name, per}, fn}
}

func (l *Activation) Kind() Kind { return KindActivation }

// BatchNorm normalizes channels with learned scale and shift
// (inference-mode: folded mean/var).
type BatchNorm struct {
	elementwise
}

// NewBatchNorm builds a batch-normalization layer.
func NewBatchNorm(name string) *BatchNorm {
	return &BatchNorm{elementwise{name, 2}}
}

func (l *BatchNorm) Kind() Kind { return KindBatchNorm }

// Infer accepts only a CHW input: scale and shift are per channel.
func (l *BatchNorm) Infer(inputs []tensor.Shape) (Size, error) {
	in, err := chw(l.LayerName, inputs)
	if err != nil {
		return Size{}, err
	}
	return Size{in.Clone(), l.flopsPerElem * float64(in.Elems()), 2 * int64(in.C())}, nil
}

// LRN is AlexNet's local response normalization.
type LRN struct {
	elementwise
	Size int // normalization window across channels
}

// NewLRN builds a local response normalization layer.
func NewLRN(name string, size int) *LRN {
	return &LRN{elementwise{name, 2 * float64(size)}, size}
}

func (l *LRN) Kind() Kind { return KindLRN }

// Dropout is an inference-time no-op kept in graphs so layer indices
// match published architectures.
type Dropout struct {
	elementwise
	Rate float64
}

// NewDropout builds a dropout layer (identity at inference).
func NewDropout(name string, rate float64) *Dropout {
	return &Dropout{elementwise{name, 0}, rate}
}

func (l *Dropout) Kind() Kind { return KindDropout }

// Softmax normalizes a vector of logits into class probabilities.
type Softmax struct {
	elementwise
}

// NewSoftmax builds a softmax layer.
func NewSoftmax(name string) *Softmax {
	return &Softmax{elementwise{name, 5}}
}

func (l *Softmax) Kind() Kind { return KindSoftmax }
