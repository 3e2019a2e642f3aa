package nn

import (
	"strings"
	"testing"
	"testing/quick"

	"dnnjps/internal/tensor"
)

func sizeOf(t *testing.T, l Layer, ins ...tensor.Shape) Size {
	t.Helper()
	s, err := l.Infer(ins)
	if err != nil {
		t.Fatalf("%s.Infer(%v): %v", l.Name(), ins, err)
	}
	return s
}

func shapeOf(t *testing.T, l Layer, ins ...tensor.Shape) tensor.Shape {
	t.Helper()
	return sizeOf(t, l, ins...).Out
}

func TestInputLayer(t *testing.T) {
	in := &Input{LayerName: "input", Shape: tensor.NewCHW(3, 224, 224)}
	out := shapeOf(t, in)
	if !out.Equal(tensor.NewCHW(3, 224, 224)) {
		t.Errorf("output = %v", out)
	}
	if _, err := in.Infer([]tensor.Shape{tensor.NewVec(1)}); err == nil {
		t.Error("input layer must reject inputs")
	}
	if s := sizeOf(t, in); s.FLOPs != 0 || s.Params != 0 {
		t.Error("input layer must be free")
	}
	if in.Kind() != KindInput {
		t.Errorf("kind = %v", in.Kind())
	}
}

func TestConv2DShape(t *testing.T) {
	// AlexNet conv1: 96 kernels 11x11 stride 4 on 3x227x227 -> 96x55x55.
	conv := &Conv2D{LayerName: "conv1", OutC: 96, KH: 11, KW: 11, Stride: 4, Pad: 0, Bias: true}
	out := shapeOf(t, conv, tensor.NewCHW(3, 227, 227))
	if !out.Equal(tensor.NewCHW(96, 55, 55)) {
		t.Errorf("conv1 output = %v, want [96x55x55]", out)
	}
}

func TestConv2DPadding(t *testing.T) {
	// Same-padding 3x3 conv preserves spatial dims.
	conv := &Conv2D{LayerName: "c", OutC: 64, KH: 3, KW: 3, Stride: 1, Pad: 1}
	out := shapeOf(t, conv, tensor.NewCHW(32, 56, 56))
	if !out.Equal(tensor.NewCHW(64, 56, 56)) {
		t.Errorf("output = %v, want [64x56x56]", out)
	}
}

func TestConv2DFLOPs(t *testing.T) {
	conv := &Conv2D{LayerName: "c", OutC: 96, KH: 11, KW: 11, Stride: 4}
	in := []tensor.Shape{tensor.NewCHW(3, 227, 227)}
	want := 2.0 * 11 * 11 * 3 * 96 * 55 * 55
	if got := sizeOf(t, conv, in...).FLOPs; got != want {
		t.Errorf("FLOPs = %g, want %g", got, want)
	}
}

func TestConv2DParams(t *testing.T) {
	conv := &Conv2D{LayerName: "c", OutC: 96, KH: 11, KW: 11, Stride: 4, Bias: true}
	in := []tensor.Shape{tensor.NewCHW(3, 227, 227)}
	want := int64(96*11*11*3 + 96)
	if got := sizeOf(t, conv, in...).Params; got != want {
		t.Errorf("Params = %d, want %d", got, want)
	}
}

func TestConv2DGrouped(t *testing.T) {
	conv := &Conv2D{LayerName: "g", OutC: 64, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 4}
	in := []tensor.Shape{tensor.NewCHW(32, 14, 14)}
	out := shapeOf(t, conv, in[0])
	if !out.Equal(tensor.NewCHW(64, 14, 14)) {
		t.Errorf("output = %v", out)
	}
	// Grouped conv FLOPs are 1/groups of the dense equivalent.
	dense := &Conv2D{LayerName: "d", OutC: 64, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if got, want := sizeOf(t, conv, in...).FLOPs, sizeOf(t, dense, in...).FLOPs/4; got != want {
		t.Errorf("grouped FLOPs = %g, want %g", got, want)
	}
}

func TestConv2DErrors(t *testing.T) {
	conv := &Conv2D{LayerName: "c", OutC: 64, KH: 3, KW: 3, Stride: 1, Groups: 5}
	if _, err := conv.Infer([]tensor.Shape{tensor.NewCHW(32, 14, 14)}); err == nil {
		t.Error("groups not dividing channels must error")
	}
	big := &Conv2D{LayerName: "c", OutC: 8, KH: 9, KW: 9, Stride: 1}
	if _, err := big.Infer([]tensor.Shape{tensor.NewCHW(3, 4, 4)}); err == nil {
		t.Error("kernel larger than input must error")
	}
	if _, err := big.Infer([]tensor.Shape{tensor.NewVec(48)}); err == nil {
		t.Error("vector input must error")
	}
	if _, err := big.Infer(nil); err == nil {
		t.Error("missing input must error")
	}
	if s, err := big.Infer([]tensor.Shape{tensor.NewCHW(3, 4, 4), tensor.NewCHW(3, 4, 4)}); err == nil {
		t.Errorf("Infer must refuse two inputs, sized them %+v", s)
	}
}

func TestDepthwiseConv(t *testing.T) {
	dw := &DepthwiseConv2D{LayerName: "dw", KH: 3, KW: 3, Stride: 2, Pad: 1}
	in := []tensor.Shape{tensor.NewCHW(144, 56, 56)}
	out := shapeOf(t, dw, in[0])
	if !out.Equal(tensor.NewCHW(144, 28, 28)) {
		t.Errorf("output = %v, want [144x28x28]", out)
	}
	want := 2.0 * 3 * 3 * 144 * 28 * 28
	if got := sizeOf(t, dw, in...).FLOPs; got != want {
		t.Errorf("FLOPs = %g, want %g", got, want)
	}
	if got := sizeOf(t, dw, in...).Params; got != int64(144*3*3) {
		t.Errorf("Params = %d", got)
	}
}

func TestMaxPool(t *testing.T) {
	p := NewMaxPool2D("pool1", 3, 2, 0)
	out := shapeOf(t, p, tensor.NewCHW(96, 55, 55))
	if !out.Equal(tensor.NewCHW(96, 27, 27)) {
		t.Errorf("output = %v, want [96x27x27]", out)
	}
	if p.Kind() != KindMaxPool {
		t.Errorf("kind = %v", p.Kind())
	}
	if sizeOf(t, p, tensor.NewCHW(96, 55, 55)).Params != 0 {
		t.Error("pool has no params")
	}
	if _, err := p.Infer(nil); err == nil {
		t.Error("missing input must error")
	}
}

func TestAvgPoolAndGlobalAvgPool(t *testing.T) {
	p := NewAvgPool2D("ap", 2, 2, 0)
	out := shapeOf(t, p, tensor.NewCHW(16, 8, 8))
	if !out.Equal(tensor.NewCHW(16, 4, 4)) {
		t.Errorf("avgpool output = %v", out)
	}
	g := &GlobalAvgPool2D{LayerName: "gap"}
	out = shapeOf(t, g, tensor.NewCHW(512, 7, 7))
	if !out.Equal(tensor.NewVec(512)) {
		t.Errorf("gap output = %v, want [512]", out)
	}
	if sizeOf(t, g, tensor.NewCHW(512, 7, 7)).FLOPs != 512*7*7 {
		t.Error("gap FLOPs should equal input elems")
	}
}

func TestPoolRejectsEmptyOutput(t *testing.T) {
	p := NewMaxPool2D("p", 9, 1, 0)
	if _, err := p.Infer([]tensor.Shape{tensor.NewCHW(3, 4, 4)}); err == nil {
		t.Error("pool kernel larger than input must error")
	}
}

func TestDense(t *testing.T) {
	d := &Dense{LayerName: "fc6", Out: 4096, Bias: true}
	// Accepts CHW input (implicit flatten).
	out := shapeOf(t, d, tensor.NewCHW(256, 6, 6))
	if !out.Equal(tensor.NewVec(4096)) {
		t.Errorf("output = %v", out)
	}
	in := []tensor.Shape{tensor.NewCHW(256, 6, 6)}
	if got, want := sizeOf(t, d, in...).FLOPs, 2.0*256*6*6*4096; got != want {
		t.Errorf("FLOPs = %g, want %g", got, want)
	}
	if got, want := sizeOf(t, d, in...).Params, int64(256*6*6*4096+4096); got != want {
		t.Errorf("Params = %d, want %d", got, want)
	}
}

func TestDenseErrors(t *testing.T) {
	d := &Dense{LayerName: "fc", Out: 0}
	if _, err := d.Infer([]tensor.Shape{tensor.NewVec(10)}); err == nil {
		t.Error("zero output size must error")
	}
	d2 := &Dense{LayerName: "fc", Out: 10}
	if _, err := d2.Infer([]tensor.Shape{{}}); err == nil {
		t.Error("empty input must error")
	}
}

func TestFlatten(t *testing.T) {
	f := &Flatten{LayerName: "flat"}
	out := shapeOf(t, f, tensor.NewCHW(256, 6, 6))
	if !out.Equal(tensor.NewVec(256 * 6 * 6)) {
		t.Errorf("output = %v", out)
	}
	if sizeOf(t, f, tensor.NewCHW(256, 6, 6)).FLOPs != 0 {
		t.Error("flatten is free")
	}
}

func TestActivationVariants(t *testing.T) {
	in := []tensor.Shape{tensor.NewCHW(8, 4, 4)}
	relu := NewActivation("r", ReLU)
	sig := NewActivation("s", Sigmoid)
	if sizeOf(t, relu, in...).FLOPs >= sizeOf(t, sig, in...).FLOPs {
		t.Error("sigmoid should cost more than relu")
	}
	out := shapeOf(t, relu, in[0])
	if !out.Equal(in[0]) {
		t.Error("activation must preserve shape")
	}
	for _, fn := range []ActFunc{ReLU, ReLU6, Sigmoid, Tanh} {
		if strings.Contains(fn.String(), "(") {
			t.Errorf("missing name for %d", fn)
		}
	}
}

func TestBatchNorm(t *testing.T) {
	bn := NewBatchNorm("bn1")
	in := []tensor.Shape{tensor.NewCHW(64, 56, 56)}
	out := shapeOf(t, bn, in[0])
	if !out.Equal(in[0]) {
		t.Error("bn must preserve shape")
	}
	if got := sizeOf(t, bn, in...).Params; got != 128 {
		t.Errorf("bn params = %d, want 128", got)
	}
	if _, err := bn.Infer([]tensor.Shape{tensor.NewVec(64)}); err == nil {
		t.Error("bn must refuse a non-CHW input: its parameters are per channel")
	}
}

func TestLRNDropoutSoftmax(t *testing.T) {
	lrn := NewLRN("lrn", 5)
	in := []tensor.Shape{tensor.NewCHW(96, 27, 27)}
	if got := sizeOf(t, lrn, in...).FLOPs; got != 10.0*96*27*27 {
		t.Errorf("lrn FLOPs = %g", got)
	}
	do := NewDropout("do", 0.5)
	if sizeOf(t, do, in...).FLOPs != 0 {
		t.Error("dropout is free at inference")
	}
	sm := NewSoftmax("sm")
	vec := []tensor.Shape{tensor.NewVec(1000)}
	out := shapeOf(t, sm, vec[0])
	if !out.Equal(tensor.NewVec(1000)) {
		t.Errorf("softmax output = %v", out)
	}
}

func TestConcat(t *testing.T) {
	c := &Concat{LayerName: "cat"}
	out := shapeOf(t, c,
		tensor.NewCHW(64, 28, 28), tensor.NewCHW(128, 28, 28), tensor.NewCHW(32, 28, 28))
	if !out.Equal(tensor.NewCHW(224, 28, 28)) {
		t.Errorf("output = %v, want [224x28x28]", out)
	}
	if _, err := c.Infer([]tensor.Shape{tensor.NewCHW(64, 28, 28), tensor.NewCHW(64, 14, 14)}); err == nil {
		t.Error("mismatched spatial dims must error")
	}
	if _, err := c.Infer(nil); err == nil {
		t.Error("no inputs must error")
	}
	if _, err := c.Infer([]tensor.Shape{tensor.NewVec(5)}); err == nil {
		t.Error("vector input must error")
	}
}

func TestAdd(t *testing.T) {
	a := &Add{LayerName: "add"}
	s := tensor.NewCHW(64, 56, 56)
	out := shapeOf(t, a, s, s)
	if !out.Equal(s) {
		t.Errorf("output = %v", out)
	}
	if got := sizeOf(t, a, s, s, s).FLOPs; got != 2.0*float64(s.Elems()) {
		t.Errorf("3-way add FLOPs = %g", got)
	}
	if _, err := a.Infer([]tensor.Shape{s}); err == nil {
		t.Error("single-input add must error")
	}
	if _, err := a.Infer([]tensor.Shape{s, tensor.NewCHW(64, 56, 28)}); err == nil {
		t.Error("mismatched shapes must error")
	}
}

func TestKindString(t *testing.T) {
	for k := KindInput; k <= KindSoftmax; k++ {
		if strings.Contains(k.String(), "(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(999).String() != "kind(999)" {
		t.Error("unknown kind string")
	}
}

// Property: conv output spatial dims follow the standard formula and
// FLOPs scale exactly with output channels.
func TestConvShapeProperty(t *testing.T) {
	f := func(k8, s8, p8 uint8) bool {
		k := int(k8)%5 + 1
		s := int(s8)%3 + 1
		p := int(p8) % 3
		in := tensor.NewCHW(3, 32, 32)
		c1 := &Conv2D{LayerName: "a", OutC: 8, KH: k, KW: k, Stride: s, Pad: p}
		c2 := &Conv2D{LayerName: "b", OutC: 16, KH: k, KW: k, Stride: s, Pad: p}
		s1, err := c1.Infer([]tensor.Shape{in})
		if err != nil {
			return true // geometrically invalid configs are fine to skip
		}
		wantH := (32+2*p-k)/s + 1
		if o := s1.Out; o.H() != wantH || o.W() != wantH || o.C() != 8 {
			return false
		}
		s2, err := c2.Infer([]tensor.Shape{in})
		return err == nil && s2.FLOPs == 2*s1.FLOPs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: pooling never increases any dimension.
func TestPoolShrinksProperty(t *testing.T) {
	f := func(k8, s8 uint8) bool {
		k := int(k8)%4 + 1
		s := int(s8)%3 + 1
		in := tensor.NewCHW(16, 30, 30)
		p := NewMaxPool2D("p", k, s, 0)
		sz, err := p.Infer([]tensor.Shape{in})
		if err != nil {
			return true
		}
		o := sz.Out
		return o.C() == 16 && o.H() <= 30 && o.W() <= 30
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
