package nn

import (
	"fmt"

	"dnnjps/internal/tensor"
)

// Dense is a fully connected layer. It accepts either a feature vector
// or a CHW activation (implicitly flattened, as frameworks do when a
// classifier head follows a convolutional trunk).
type Dense struct {
	LayerName string
	Out       int
	Bias      bool
}

func (l *Dense) Name() string { return l.LayerName }
func (l *Dense) Kind() Kind   { return KindDense }

func (l *Dense) Infer(inputs []tensor.Shape) (Size, error) {
	in, err := one(l.LayerName, inputs)
	if err != nil {
		return Size{}, err
	}
	if in.Elems() == 0 {
		return Size{}, fmt.Errorf("nn: dense %q has empty input %v", l.LayerName, in)
	}
	if l.Out <= 0 {
		return Size{}, fmt.Errorf("nn: dense %q has non-positive output size %d", l.LayerName, l.Out)
	}
	p := int64(in.Elems()) * int64(l.Out)
	if l.Bias {
		p += int64(l.Out)
	}
	return Size{tensor.NewVec(l.Out), 2 * float64(in.Elems()) * float64(l.Out), p}, nil
}

// Flatten reshapes a CHW activation into a feature vector. It is a
// zero-cost layer kept explicit so cut-points around classifier heads
// line up with the paper's layer indexing.
type Flatten struct {
	LayerName string
}

func (l *Flatten) Name() string { return l.LayerName }
func (l *Flatten) Kind() Kind   { return KindFlatten }

func (l *Flatten) Infer(inputs []tensor.Shape) (Size, error) {
	in, err := one(l.LayerName, inputs)
	if err != nil {
		return Size{}, err
	}
	return Size{Out: tensor.NewVec(in.Elems())}, nil
}
