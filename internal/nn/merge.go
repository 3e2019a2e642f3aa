package nn

import (
	"fmt"

	"dnnjps/internal/tensor"
)

// Concat joins CHW inputs along the channel axis — the merge node of
// Inception modules and DenseNet-style blocks.
type Concat struct {
	LayerName string
}

func (l *Concat) Name() string { return l.LayerName }
func (l *Concat) Kind() Kind   { return KindConcat }

func (l *Concat) Infer(inputs []tensor.Shape) (Size, error) {
	if len(inputs) < 1 {
		return Size{}, fmt.Errorf("nn: concat %q needs at least 1 input", l.LayerName)
	}
	first := inputs[0]
	if first.Rank() != 3 {
		return Size{}, fmt.Errorf("nn: concat %q expects CHW inputs, got %v", l.LayerName, first)
	}
	c := 0
	for i, in := range inputs {
		if in.Rank() != 3 {
			return Size{}, fmt.Errorf("nn: concat %q input %d is not CHW: %v", l.LayerName, i, in)
		}
		if in.H() != first.H() || in.W() != first.W() {
			return Size{}, fmt.Errorf("nn: concat %q input %d spatial %dx%d mismatches %dx%d",
				l.LayerName, i, in.H(), in.W(), first.H(), first.W())
		}
		c += in.C()
	}
	out := tensor.NewCHW(c, first.H(), first.W())
	return Size{Out: out, FLOPs: float64(out.Elems())}, nil // one copy per element
}

// Add sums identically shaped inputs elementwise — the merge node of
// residual blocks.
type Add struct {
	LayerName string
}

func (l *Add) Name() string { return l.LayerName }
func (l *Add) Kind() Kind   { return KindAdd }

func (l *Add) Infer(inputs []tensor.Shape) (Size, error) {
	if len(inputs) < 2 {
		return Size{}, fmt.Errorf("nn: add %q needs at least 2 inputs, got %d", l.LayerName, len(inputs))
	}
	first := inputs[0]
	for i, in := range inputs[1:] {
		if !in.Equal(first) {
			return Size{}, fmt.Errorf("nn: add %q input %d shape %v mismatches %v",
				l.LayerName, i+1, in, first)
		}
	}
	return Size{Out: first.Clone(), FLOPs: float64(len(inputs)-1) * float64(first.Elems())}, nil
}
