package engine

import (
	"fmt"
	"math"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/nn"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// tinyCNN is a small but complete line model covering conv, pool,
// bn, activation, dense and softmax.
func tinyCNN(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New("tinycnn")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(3, 16, 16)})
	c1 := g.Add(&nn.Conv2D{LayerName: "conv1", OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, in)
	b1 := g.Add(nn.NewBatchNorm("bn1"), c1)
	r1 := g.Add(nn.NewActivation("relu1", nn.ReLU), b1)
	p1 := g.Add(nn.NewMaxPool2D("pool1", 2, 2, 0), r1)
	c2 := g.Add(&nn.DepthwiseConv2D{LayerName: "dw2", KH: 3, KW: 3, Stride: 1, Pad: 1}, p1)
	r2 := g.Add(nn.NewActivation("relu2", nn.ReLU6), c2)
	gp := g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, r2)
	fc := g.Add(&nn.Dense{LayerName: "fc", Out: 10, Bias: true}, gp)
	g.Add(nn.NewSoftmax("softmax"), fc)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// tinyResidual has an Add merge and a Concat, covering the general
// execution paths.
func tinyResidual(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New("tinyres")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(4, 8, 8)})
	a := g.Add(&nn.Conv2D{LayerName: "body", OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, in)
	ad := g.Add(&nn.Add{LayerName: "add"}, a, in)
	c1 := g.Add(&nn.Conv2D{LayerName: "b1", OutC: 2, KH: 1, KW: 1, Stride: 1}, ad)
	c2 := g.Add(&nn.Conv2D{LayerName: "b2", OutC: 3, KH: 1, KW: 1, Stride: 1}, ad)
	cc := g.Add(&nn.Concat{LayerName: "cat"}, c1, c2)
	g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, cc)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func seededInput(shape tensor.Shape) *tensor.Tensor {
	in := tensor.New(shape)
	for i := range in.Data {
		in.Data[i] = float32((i%17))/17 - 0.3
	}
	return in
}

func TestForwardShapes(t *testing.T) {
	g := tinyCNN(t)
	m := Load(g, 1)
	out, err := m.Forward(seededInput(tensor.NewCHW(3, 16, 16)))
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if !out.Shape.Equal(tensor.NewVec(10)) {
		t.Errorf("output shape = %v", out.Shape)
	}
}

func TestSoftmaxOutputIsDistribution(t *testing.T) {
	g := tinyCNN(t)
	m := Load(g, 1)
	out, err := m.Forward(seededInput(tensor.NewCHW(3, 16, 16)))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out.Data {
		if v < 0 || v > 1 {
			t.Errorf("probability out of range: %g", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("probabilities sum to %g", sum)
	}
}

func TestDeterminism(t *testing.T) {
	g := tinyCNN(t)
	in := seededInput(tensor.NewCHW(3, 16, 16))
	out1, _ := Load(g, 42).Forward(in.Clone())
	out2, _ := Load(g, 42).Forward(in.Clone())
	for i := range out1.Data {
		if out1.Data[i] != out2.Data[i] {
			t.Fatal("same seed must give bit-identical outputs")
		}
	}
	out3, _ := Load(g, 43).Forward(in.Clone())
	same := true
	for i := range out1.Data {
		if out1.Data[i] != out3.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different outputs")
	}
}

func TestConv2DNumeric(t *testing.T) {
	// 1x3x3 input, one 2x2 kernel of ones, no pad, stride 1:
	// output[oh][ow] = sum of the 2x2 window.
	g := dag.New("c")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 3, 3)})
	g.Add(&nn.Conv2D{LayerName: "conv", OutC: 1, KH: 2, KW: 2, Stride: 1}, in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 1)
	convID := g.Len() - 1
	p := m.params[convID]
	for i := range p.w {
		p.w[i] = 1
	}
	input, _ := tensor.NewFrom(tensor.NewCHW(1, 3, 3), []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	out, err := m.Forward(input)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{12, 16, 24, 28}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %g, want %g", i, out.Data[i], w)
		}
	}
}

func TestConvPaddingNumeric(t *testing.T) {
	// Same kernel of ones with pad 1: corners see only 1 input value.
	g := dag.New("c")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 2, 2)})
	g.Add(&nn.Conv2D{LayerName: "conv", OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}, in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 1)
	p := m.params[1]
	for i := range p.w {
		p.w[i] = 1
	}
	input, _ := tensor.NewFrom(tensor.NewCHW(1, 2, 2), []float32{1, 2, 3, 4})
	out, _ := m.Forward(input)
	// All four outputs see the whole 2x2 input (kernel covers it).
	for i := 0; i < 4; i++ {
		if out.Data[i] != 10 {
			t.Errorf("out[%d] = %g, want 10", i, out.Data[i])
		}
	}
}

func TestMaxPoolNumeric(t *testing.T) {
	g := dag.New("p")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 4, 4)})
	g.Add(nn.NewMaxPool2D("pool", 2, 2, 0), in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 1)
	input, _ := tensor.NewFrom(tensor.NewCHW(1, 4, 4), []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	out, _ := m.Forward(input)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %g, want %g", i, out.Data[i], w)
		}
	}
}

func TestAvgAndGlobalPoolNumeric(t *testing.T) {
	g := dag.New("p")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 2, 2)})
	a := g.Add(nn.NewAvgPool2D("avg", 2, 2, 0), in)
	g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, a)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 1)
	input, _ := tensor.NewFrom(tensor.NewCHW(1, 2, 2), []float32{2, 4, 6, 8})
	out, _ := m.Forward(input)
	if out.Data[0] != 5 {
		t.Errorf("avg = %g, want 5", out.Data[0])
	}
}

// poolByTaps is the pooling reference: each output element lists the
// taps its window covers inside the plane, row by row, and folds them.
// Max starts from -Inf and keeps a tap only if it is strictly greater,
// so NaN never wins and the first of ±0 stays. The mean is the float32
// sum in that order over the number of taps; a window that covers only
// padding is 0.
func poolByTaps(src []float32, planes, inH, inW, outH, outW, k, stride, pad int, isMax bool) []float32 {
	out := make([]float32, 0, planes*outH*outW)
	for pl := 0; pl < planes; pl++ {
		plane := src[pl*inH*inW : (pl+1)*inH*inW]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				var taps []float32
				for r := 0; r < k; r++ {
					for c := 0; c < k; c++ {
						ih, iw := oh*stride-pad+r, ow*stride-pad+c
						if ih >= 0 && ih < inH && iw >= 0 && iw < inW {
							taps = append(taps, plane[ih*inW+iw])
						}
					}
				}
				best, sum := float32(math.Inf(-1)), float32(0)
				for _, v := range taps {
					if v > best {
						best = v
					}
					sum += v
				}
				switch {
				case isMax:
					out = append(out, best)
				case len(taps) == 0:
					out = append(out, 0)
				default:
					out = append(out, sum/float32(len(taps)))
				}
			}
		}
	}
	return out
}

// TestPoolMatchesWindowWalk pins max and average pooling, bit for bit,
// to poolByTaps over k 1–3, stride 1–3 and pad 0–2: windows clipped by
// the plane's edges, windows of padding alone (pad ≥ k), planes smaller
// than the kernel, a packed batch of 1 and 3 and 1–3 workers. Max also
// meets NaN, ±0 and ±Inf.
func TestPoolMatchesWindowWalk(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	special := []float32{float32(math.NaN()), 0, negZero, float32(math.Inf(1)), float32(math.Inf(-1))}
	const c = 2
	for _, hw := range [][2]int{{1, 1}, {2, 3}, {5, 5}, {7, 4}} {
		inH, inW := hw[0], hw[1]
		for _, n := range []int{1, 3} {
			planes := c * n
			finite := randInput(tensor.NewCHW(planes, inH, inW), int64(inH*10+inW+n)).Data
			for i := 0; i < len(finite); i += 4 {
				finite[i] = negZero
			}
			edgy := append([]float32(nil), finite...)
			for i := range edgy {
				if i%3 == 1 {
					edgy[i] = special[(i/3)%len(special)]
				}
			}
			for k := 1; k <= 3; k++ {
				for stride := 1; stride <= 3; stride++ {
					for pad := 0; pad <= 2; pad++ {
						if inH+2*pad < k || inW+2*pad < k {
							continue
						}
						outH, outW := (inH+2*pad-k)/stride+1, (inW+2*pad-k)/stride+1
						for _, kind := range []struct {
							name  string
							plane planePool
							src   []float32
						}{{"max", maxpoolPlane, edgy}, {"avg", avgpoolPlane, finite}} {
							in, _ := tensor.NewFrom(tensor.NewCHW(planes, inH, inW), kind.src)
							want := poolByTaps(kind.src, planes, inH, inW, outH, outW, k, stride, pad, kind.name == "max")
							for workers := 1; workers <= 3; workers++ {
								got := pool2d(nil, in, tensor.NewCHW(c, outH, outW), k, stride, pad, workers, n, kind.plane)
								assertSameBits(t, fmt.Sprintf("%s %dx%d n=%d k=%d stride=%d pad=%d workers=%d",
									kind.name, inH, inW, n, k, stride, pad, workers), got.Data, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestDenseNumeric(t *testing.T) {
	g := dag.New("d")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewVec(3)})
	g.Add(&nn.Dense{LayerName: "fc", Out: 2, Bias: true}, in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 1)
	p := m.params[1]
	copy(p.w, []float32{1, 2, 3, 4, 5, 6}) // row-major [out][in]
	copy(p.b, []float32{10, 20})
	input, _ := tensor.NewFrom(tensor.NewVec(3), []float32{1, 1, 1})
	out, _ := m.Forward(input)
	if out.Data[0] != 16 || out.Data[1] != 35 {
		t.Errorf("dense = %v, want [16 35]", out.Data)
	}
}

func TestAddAndConcatNumeric(t *testing.T) {
	g := tinyResidual(t)
	m := Load(g, 5)
	out, err := m.Forward(seededInput(tensor.NewCHW(4, 8, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.NewVec(5)) { // 2+3 concat channels
		t.Errorf("output shape = %v", out.Shape)
	}
}

func TestActivationNumerics(t *testing.T) {
	for _, fn := range []nn.ActFunc{nn.ReLU, nn.ReLU6, nn.Sigmoid, nn.Tanh} {
		in, _ := tensor.NewFrom(tensor.NewVec(4), []float32{-2, 0, 3, 8})
		out := activate(nil, in, fn, false)
		switch fn {
		case nn.ReLU:
			assertVec(t, "relu", out, []float32{0, 0, 3, 8})
		case nn.ReLU6:
			assertVec(t, "relu6", out, []float32{0, 0, 3, 6})
		case nn.Sigmoid:
			if out.Data[1] != 0.5 || out.Data[0] >= 0.5 || out.Data[2] <= 0.5 {
				t.Errorf("sigmoid = %v", out.Data)
			}
		case nn.Tanh:
			if out.Data[1] != 0 || out.Data[0] >= 0 || out.Data[2] <= 0 {
				t.Errorf("tanh = %v", out.Data)
			}
		}
	}
}

func assertVec(t *testing.T, name string, got *tensor.Tensor, want []float32) {
	t.Helper()
	for i, w := range want {
		if got.Data[i] != w {
			t.Errorf("%s[%d] = %g, want %g", name, i, got.Data[i], w)
		}
	}
}

// The invariant the offloading runtime depends on: executing the
// mobile prefix, shipping the boundary tensor, and executing the cloud
// suffix reproduces the full forward pass exactly — for every cut of
// the line view.
func TestPartitionedExecutionMatchesFullForward(t *testing.T) {
	for _, build := range []func(*testing.T) *dag.Graph{tinyCNN, tinyResidual} {
		g := build(t)
		m := Load(g, 9)
		in := seededInput(g.Node(g.Source()).OutShape)
		full, err := m.Forward(in.Clone())
		if err != nil {
			t.Fatal(err)
		}
		units := profile.LineView(g)
		topo := g.Topo()
		for cut := 0; cut < len(units); cut++ {
			// Mobile side: all units up to and including cut.
			var prefix []int
			for _, u := range units[:cut+1] {
				prefix = append(prefix, u.Nodes...)
			}
			acts := map[int]*tensor.Tensor{}
			if err := m.Execute(acts, in.Clone(), prefix); err != nil {
				t.Fatalf("%s cut %d prefix: %v", g.Name(), cut, err)
			}
			// Ship only the boundary tensor (the cut unit's exit).
			boundary := map[int]*tensor.Tensor{units[cut].Exit: acts[units[cut].Exit]}
			// Cloud side: remaining nodes in topo order.
			inPrefix := make(map[int]bool, len(prefix))
			for _, id := range prefix {
				inPrefix[id] = true
			}
			var suffix []int
			for _, id := range topo {
				if !inPrefix[id] {
					suffix = append(suffix, id)
				}
			}
			if err := m.Execute(boundary, nil, suffix); err != nil {
				t.Fatalf("%s cut %d suffix: %v", g.Name(), cut, err)
			}
			got := boundary[g.Sink()]
			for i := range full.Data {
				if got.Data[i] != full.Data[i] {
					t.Fatalf("%s cut %d: output[%d] = %g, full = %g",
						g.Name(), cut, i, got.Data[i], full.Data[i])
				}
			}
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	g := tinyCNN(t)
	m := Load(g, 1)
	// Missing input.
	if err := m.Execute(map[int]*tensor.Tensor{}, nil, g.Topo()); err == nil {
		t.Error("missing input must error")
	}
	// Wrong input shape.
	if _, err := m.Forward(tensor.New(tensor.NewCHW(1, 4, 4))); err == nil {
		t.Error("wrong shape must error")
	}
	// Missing predecessor activation.
	if err := m.Execute(map[int]*tensor.Tensor{}, nil, []int{g.Sink()}); err == nil {
		t.Error("missing predecessor must error")
	}
}

func TestArgmax(t *testing.T) {
	v, _ := tensor.NewFrom(tensor.NewVec(4), []float32{0.1, 0.7, 0.15, 0.05})
	if Argmax(v) != 1 {
		t.Errorf("Argmax = %d, want 1", Argmax(v))
	}
}

func TestLRNNormalizes(t *testing.T) {
	in, _ := tensor.NewFrom(tensor.NewCHW(3, 1, 1), []float32{1, 2, 3})
	out := lrn(nil, in, 5, 1)
	for i := range out.Data {
		if math.Abs(float64(out.Data[i])) >= math.Abs(float64(in.Data[i])) {
			t.Errorf("lrn must shrink magnitudes: %v -> %v", in.Data, out.Data)
		}
		if out.Data[i]*in.Data[i] < 0 {
			t.Error("lrn must preserve sign")
		}
	}
}

// MobileNet-v2 runs end to end in the real engine (the heaviest model
// the runtime example uses).
func TestMobileNetV2Forward(t *testing.T) {
	if testing.Short() {
		t.Skip("full MobileNet forward is slow")
	}
	g := models.MustBuild("mobilenetv2")
	m := Load(g, 3)
	out, err := m.Forward(seededInput(tensor.NewCHW(3, 224, 224)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.NewVec(1000)) {
		t.Errorf("output shape = %v", out.Shape)
	}
	var sum float64
	for _, v := range out.Data {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("softmax sum = %g", sum)
	}
}

func TestRectangularConvNumeric(t *testing.T) {
	// A 1x3 conv of ones with PadW=1 sums each row neighborhood:
	// out[h][w] = in[h][w-1] + in[h][w] + in[h][w+1] (zero padded).
	g := dag.New("rect")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 2, 3)})
	g.Add(&nn.Conv2D{LayerName: "c", OutC: 1, KH: 1, KW: 3, Stride: 1, PadH: -1, PadW: 1}, in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 1)
	p := m.params[1]
	for i := range p.w {
		p.w[i] = 1
	}
	input, _ := tensor.NewFrom(tensor.NewCHW(1, 2, 3), []float32{
		1, 2, 3,
		4, 5, 6,
	})
	out, err := m.Forward(input)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.NewCHW(1, 2, 3)) {
		t.Fatalf("shape = %v, want [1x2x3]", out.Shape)
	}
	want := []float32{3, 6, 5, 9, 15, 11}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %g, want %g", i, out.Data[i], w)
		}
	}
}

func TestPartitionedInceptionStyleRectConv(t *testing.T) {
	// Prefix/suffix equality must hold through rectangular conv pairs.
	g := dag.New("rectres")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(4, 9, 9)})
	a := g.Add(&nn.Conv2D{LayerName: "c1x3", OutC: 4, KH: 1, KW: 3, Stride: 1, PadH: -1, PadW: 1, Bias: true}, in)
	b := g.Add(&nn.Conv2D{LayerName: "c3x1", OutC: 4, KH: 3, KW: 1, Stride: 1, PadH: 1, PadW: -1, Bias: true}, a)
	g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, b)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 11)
	input := seededInput(tensor.NewCHW(4, 9, 9))
	full, err := m.Forward(input.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Cut after c1x3: execute prefix, ship, execute suffix.
	acts := map[int]*tensor.Tensor{}
	if err := m.Execute(acts, input.Clone(), []int{in, a}); err != nil {
		t.Fatal(err)
	}
	boundary := map[int]*tensor.Tensor{a: acts[a]}
	if err := m.Execute(boundary, nil, []int{b, g.Sink()}); err != nil {
		t.Fatal(err)
	}
	got := boundary[g.Sink()]
	for i := range full.Data {
		if got.Data[i] != full.Data[i] {
			t.Fatalf("partitioned output differs at %d", i)
		}
	}
}
