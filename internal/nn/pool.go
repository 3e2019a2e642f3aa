package nn

import (
	"fmt"

	"dnnjps/internal/tensor"
)

// pool is the shared base of max and average pooling: it names and
// sizes them.
type pool struct {
	LayerName string
	K         int // square kernel
	Stride    int
	Pad       int
}

func (l *pool) Name() string { return l.LayerName }

func (l *pool) Infer(inputs []tensor.Shape) (Size, error) {
	in, err := chw(l.LayerName, inputs)
	if err != nil {
		return Size{}, err
	}
	oh := convOut(in.H(), l.K, l.Stride, l.Pad)
	ow := convOut(in.W(), l.K, l.Stride, l.Pad)
	if oh <= 0 || ow <= 0 {
		return Size{}, fmt.Errorf("nn: pool %q produces empty output %dx%d from input %v",
			l.LayerName, oh, ow, in)
	}
	out := tensor.NewCHW(in.C(), oh, ow)
	// One comparison/accumulation per kernel element per output element.
	return Size{Out: out, FLOPs: float64(l.K) * float64(l.K) * float64(out.Elems())}, nil
}

// MaxPool2D is a square max-pooling layer.
type MaxPool2D struct{ pool }

// NewMaxPool2D builds a max pool with kernel k, stride s, padding p.
func NewMaxPool2D(name string, k, s, p int) *MaxPool2D {
	return &MaxPool2D{pool{name, k, s, p}}
}

func (l *MaxPool2D) Kind() Kind { return KindMaxPool }

// AvgPool2D is a square average-pooling layer.
type AvgPool2D struct{ pool }

// NewAvgPool2D builds an average pool with kernel k, stride s, padding p.
func NewAvgPool2D(name string, k, s, p int) *AvgPool2D {
	return &AvgPool2D{pool{name, k, s, p}}
}

func (l *AvgPool2D) Kind() Kind { return KindAvgPool }

// GlobalAvgPool2D reduces each channel to a single value, producing a
// feature vector — the standard head of MobileNet/ResNet/GoogLeNet.
type GlobalAvgPool2D struct {
	LayerName string
}

func (l *GlobalAvgPool2D) Name() string { return l.LayerName }
func (l *GlobalAvgPool2D) Kind() Kind   { return KindGlobalAvgPool }

func (l *GlobalAvgPool2D) Infer(inputs []tensor.Shape) (Size, error) {
	in, err := chw(l.LayerName, inputs)
	if err != nil {
		return Size{}, err
	}
	return Size{Out: tensor.NewVec(in.C()), FLOPs: float64(in.Elems())}, nil
}
