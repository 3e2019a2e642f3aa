package nn

import (
	"fmt"

	"dnnjps/internal/tensor"
)

// Conv2D is a standard (optionally grouped) 2-D convolution. Padding
// is symmetric per axis: Pad applies to both height and width unless
// PadH/PadW override it — rectangular kernels (Inception-v4's 1x3 and
// 3x1 factorized convolutions) need per-axis padding to preserve
// spatial dims.
type Conv2D struct {
	LayerName  string
	OutC       int // output channels
	KH, KW     int // kernel size
	Stride     int
	Pad        int
	PadH, PadW int  // per-axis overrides; see EffPadH/EffPadW
	Groups     int  // 1 = dense conv; InC = depthwise (use DepthwiseConv2D)
	Bias       bool // include a bias vector in the parameter count
}

func (l *Conv2D) Name() string { return l.LayerName }
func (l *Conv2D) Kind() Kind   { return KindConv }

func (l *Conv2D) groups() int {
	if l.Groups <= 0 {
		return 1
	}
	return l.Groups
}

// EffPadH and EffPadW resolve the per-axis padding: an explicit
// PadH/PadW wins (use -1 for an explicit zero when Pad is nonzero),
// otherwise Pad applies to both axes.
func (l *Conv2D) EffPadH() int { return resolvePad(l.PadH, l.Pad) }
func (l *Conv2D) EffPadW() int { return resolvePad(l.PadW, l.Pad) }

func resolvePad(override, base int) int {
	switch {
	case override < 0:
		return 0
	case override > 0:
		return override
	default:
		return base
	}
}

func (l *Conv2D) Infer(inputs []tensor.Shape) (Size, error) {
	in, err := chw(l.LayerName, inputs)
	if err != nil {
		return Size{}, err
	}
	g := l.groups()
	if in.C()%g != 0 || l.OutC%g != 0 {
		return Size{}, fmt.Errorf("nn: conv %q groups=%d does not divide inC=%d/outC=%d",
			l.LayerName, g, in.C(), l.OutC)
	}
	oh := convOut(in.H(), l.KH, l.Stride, l.EffPadH())
	ow := convOut(in.W(), l.KW, l.Stride, l.EffPadW())
	if oh <= 0 || ow <= 0 {
		return Size{}, fmt.Errorf("nn: conv %q produces empty output %dx%d from input %v",
			l.LayerName, oh, ow, in)
	}
	out := tensor.NewCHW(l.OutC, oh, ow)
	// 2 ops (mul+add) per kernel element per output element.
	perOut := 2 * float64(l.KH) * float64(l.KW) * float64(in.C()) / float64(g)
	p := int64(l.OutC) * int64(l.KH) * int64(l.KW) * int64(in.C()) / int64(g)
	if l.Bias {
		p += int64(l.OutC)
	}
	return Size{out, perOut * float64(out.Elems()), p}, nil
}

// DepthwiseConv2D convolves each channel independently (groups = C),
// the workhorse of MobileNet-v2 bottleneck blocks.
type DepthwiseConv2D struct {
	LayerName string
	KH, KW    int
	Stride    int
	Pad       int
	Bias      bool
}

func (l *DepthwiseConv2D) Name() string { return l.LayerName }
func (l *DepthwiseConv2D) Kind() Kind   { return KindDepthwiseConv }

func (l *DepthwiseConv2D) Infer(inputs []tensor.Shape) (Size, error) {
	in, err := chw(l.LayerName, inputs)
	if err != nil {
		return Size{}, err
	}
	oh := convOut(in.H(), l.KH, l.Stride, l.Pad)
	ow := convOut(in.W(), l.KW, l.Stride, l.Pad)
	if oh <= 0 || ow <= 0 {
		return Size{}, fmt.Errorf("nn: dwconv %q produces empty output %dx%d from input %v",
			l.LayerName, oh, ow, in)
	}
	out := tensor.NewCHW(in.C(), oh, ow)
	p := int64(in.C()) * int64(l.KH) * int64(l.KW)
	if l.Bias {
		p += int64(in.C())
	}
	return Size{out, 2 * float64(l.KH) * float64(l.KW) * float64(out.Elems()), p}, nil
}
