package engine

import (
	"math"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// quantPair loads the same (graph, seed) twice and quantizes one copy
// — the fp32 model is the reference the int8 path is compared against.
func quantPair(t *testing.T, g *dag.Graph, seed int64, samples int) (fp32, quant *Model) {
	t.Helper()
	fp32 = Load(g, seed).Parallel(3)
	quant = Load(g, seed).Parallel(3)
	cal, err := quant.CalibrateSynthetic(samples)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quant.Quantize(cal); err != nil {
		t.Fatal(err)
	}
	return fp32, quant
}

// TestQuantizedForwardClose bounds the int8 path's end-to-end error on
// the real model zoo. The sink is a softmax over ~1000 random-weight
// logits, so probabilities cluster near uniform (~1e-3); the bound is
// on the max absolute probability error, tuned empirically with ~4x
// headroom over observed error.
func TestQuantizedForwardClose(t *testing.T) {
	for _, name := range []string{"mobilenetv2", "alexnet"} {
		t.Run(name, func(t *testing.T) {
			g := models.MustBuild(name)
			fp32, quant := quantPair(t, g, 1, 2)
			in := randInput(g.Node(g.Source()).OutShape, 99)
			want, err := fp32.Forward(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := quant.Forward(in)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Shape.Equal(want.Shape) {
				t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
			}
			var maxErr float64
			for i := range want.Data {
				if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > maxErr {
					maxErr = d
				}
			}
			t.Logf("%s: max |Δp| = %.2e", name, maxErr)
			if maxErr > 2e-3 {
				t.Errorf("max softmax probability error %.2e, want <= 2e-3", maxErr)
			}
		})
	}
}

// TestQuantizedTop1Agreement checks that int8 inference predicts the
// same class as fp32 on most inputs. Random-weight logits are tightly
// clustered — the hardest possible case for argmax stability — so the
// bar is majority agreement, not perfection.
func TestQuantizedTop1Agreement(t *testing.T) {
	g := models.MustBuild("mobilenetv2")
	fp32, quant := quantPair(t, g, 1, 2)
	shape := g.Node(g.Source()).OutShape
	const n = 8
	agree := 0
	for i := 0; i < n; i++ {
		in := randInput(shape, int64(100+i))
		want, err := fp32.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := quant.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		if Argmax(got) == Argmax(want) {
			agree++
		}
	}
	t.Logf("top-1 agreement: %d/%d", agree, n)
	if agree < n/2+1 {
		t.Errorf("top-1 agreement %d/%d, want a majority", agree, n)
	}
}

// TestQuantizeDeterministic is the property the runtime's quantized
// wire mode rests on: two processes that Load the same (model, seed)
// and calibrate synthetically derive bit-identical quantized models
// and activation mappings, without exchanging anything.
func TestQuantizeDeterministic(t *testing.T) {
	g := models.MustBuild("mobilenetv2")
	build := func() *Model {
		m := Load(g, 42)
		cal, err := m.CalibrateSynthetic(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Quantize(cal); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(), build()
	if len(a.quant.layers) == 0 {
		t.Fatal("no layers quantized")
	}
	for id, la := range a.quant.layers {
		lb := b.quant.layers[id]
		if lb == nil {
			t.Fatalf("node %d quantized in one model only", id)
		}
		for i := range la.qw {
			if la.qw[i] != lb.qw[i] {
				t.Fatalf("node %d: weight code %d differs: %d vs %d", id, i, la.qw[i], lb.qw[i])
			}
		}
		for i := range la.ws {
			if la.ws[i] != lb.ws[i] || la.rowSum[i] != lb.rowSum[i] || la.bias[i] != lb.bias[i] {
				t.Fatalf("node %d: channel %d scale/sum/bias differ", id, i)
			}
		}
	}
	for id, pa := range a.quant.act {
		if pb := b.quant.act[id]; pa != pb {
			t.Fatalf("node %d: activation params differ: %+v vs %+v", id, pa, pb)
		}
	}
}

// TestQuantizedDeterministicForward: the int8 forward itself is
// deterministic across worker counts — integer accumulation is
// associative, so unlike the fp32 kernels this needs no accumulation-
// order contract, and the epilogue rounds each element independently.
func TestQuantizedDeterministicForward(t *testing.T) {
	g := models.MustBuild("mobilenetv2")
	_, quant := quantPair(t, g, 1, 1)
	in := randInput(g.Node(g.Source()).OutShape, 5)
	var ref *tensor.Tensor
	for _, workers := range []int{1, 3, 8} {
		quant.Parallel(workers)
		out, err := quant.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out.Clone()
			continue
		}
		for i := range ref.Data {
			if out.Data[i] != ref.Data[i] {
				t.Fatalf("workers=%d: element %d differs: %v vs %v", workers, i, out.Data[i], ref.Data[i])
			}
		}
	}
}

// TestQuantBNFolded checks that every BatchNorm in mobilenetv2 was
// absorbed into its producing conv, and that the folded graph still
// tracks the fp32 model closely at an intermediate edge (the first
// bottleneck's output), not just at the softmax sink.
func TestQuantBNFolded(t *testing.T) {
	g := models.MustBuild("mobilenetv2")
	fp32, quant := quantPair(t, g, 1, 2)
	bns := 0
	for _, id := range g.Topo() {
		if _, ok := g.Node(id).Layer.(*nn.BatchNorm); ok {
			bns++
			if !quant.quant.folded[id] {
				t.Errorf("BatchNorm %q not folded", g.Node(id).Layer.Name())
			}
		}
	}
	if bns == 0 {
		t.Fatal("mobilenetv2 has no BatchNorm nodes?")
	}

	node, ok := g.NodeByName("bneck1/project")
	if !ok {
		t.Fatal("no bneck1/project node")
	}
	// Execute both models through the first bottleneck and compare its
	// projection output relative to the calibrated activation scale —
	// i.e. in units of one int8 step.
	var prefix []int
	anc := g.Ancestors(node.ID)
	for _, id := range g.Topo() {
		if anc[id] || id == node.ID {
			prefix = append(prefix, id)
		}
	}
	in := randInput(g.Node(g.Source()).OutShape, 11)
	fa := map[int]*tensor.Tensor{}
	qa := map[int]*tensor.Tensor{}
	if err := fp32.Execute(fa, in.Clone(), prefix); err != nil {
		t.Fatal(err)
	}
	if err := quant.Execute(qa, in.Clone(), prefix); err != nil {
		t.Fatal(err)
	}
	qp, err := quant.ActivationQParams(node.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, got := fa[node.ID], qa[node.ID]
	var maxSteps, sumSteps float64
	for i := range want.Data {
		d := math.Abs(float64(got.Data[i]-want.Data[i])) / float64(qp.Scale)
		sumSteps += d
		if d > maxSteps {
			maxSteps = d
		}
	}
	meanSteps := sumSteps / float64(len(want.Data))
	t.Logf("bneck1/project: mean %.2f / max %.1f int8 steps (scale %.3g)", meanSteps, maxSteps, qp.Scale)
	// Four stacked per-tensor-quantized layers ending in a linear
	// bottleneck projection accumulate noise: measured mean ~5 steps
	// (2% of the 255-step range) with a ~40-step tail. Bound both with
	// headroom; a folding bug (wrong gain on one channel) blows past
	// either immediately.
	if meanSteps > 10 {
		t.Errorf("intermediate mean error %.2f int8 steps, want <= 10", meanSteps)
	}
	if maxSteps > 64 {
		t.Errorf("intermediate max error %.1f int8 steps, want <= 64 (quarter range)", maxSteps)
	}
}

// TestQuantRejectsBatched: the batched kernels are fp32-only; a
// quantized model must refuse ExecuteBatch at n > 1 rather than fall
// back silently.
func TestQuantRejectsBatched(t *testing.T) {
	g := models.MustBuild("mobilenetv2")
	_, quant := quantPair(t, g, 1, 1)
	ins := []*tensor.Tensor{
		randInput(g.Node(g.Source()).OutShape, 1),
		randInput(g.Node(g.Source()).OutShape, 2),
	}
	if _, err := quant.ForwardBatch(ins); err == nil {
		t.Fatal("ForwardBatch succeeded on a quantized model, want error")
	}
}

// TestChooseQParamsProperties pins the invariants the kernels assume:
// zero is exactly representable, and round-tripping any in-range value
// errs by at most half a step.
func TestChooseQParamsProperties(t *testing.T) {
	cases := [][2]float32{{-1, 1}, {0, 6}, {-3.7, 0.2}, {0.5, 2}, {-2, -0.25}, {0, 0}}
	for _, c := range cases {
		p := tensor.ChooseQParams(c[0], c[1])
		if got := p.Dequantize(p.Quantize(0)); got != 0 {
			t.Errorf("range [%g,%g]: 0.0 round-trips to %g, want exact 0", c[0], c[1], got)
		}
		lo, hi := c[0], c[1]
		if lo > 0 {
			lo = 0
		}
		if hi < 0 {
			hi = 0
		}
		for i := 0; i <= 32; i++ {
			x := lo + (hi-lo)*float32(i)/32
			got := p.Dequantize(p.Quantize(x))
			if math.Abs(float64(got-x)) > float64(p.Scale)*0.501 {
				t.Errorf("range [%g,%g]: %g round-trips to %g (step %g)", c[0], c[1], x, got, p.Scale)
			}
		}
	}
}

// qdwGeom is one depthwise geometry for the int8 reference test.
type qdwGeom struct{ h, w, kh, kw, stride, pad int }

// qdwReference is the int8 depthwise convolution written tap by tap:
// a tap outside the input is skipped, every other tap adds k·(x−zx) in
// int32, and each output is requantized as the kernel does it.
func qdwReference(qin []int8, ql *qlayer, qp tensor.QParams, c int, g qdwGeom, outH, outW int) []float32 {
	out := make([]float32, c*outH*outW)
	for ch := 0; ch < c; ch++ {
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				var acc int32
				for r := 0; r < g.kh; r++ {
					ih := oh*g.stride - g.pad + r
					if ih < 0 || ih >= g.h {
						continue
					}
					for s := 0; s < g.kw; s++ {
						iw := ow*g.stride - g.pad + s
						if iw < 0 || iw >= g.w {
							continue
						}
						k := int32(ql.qw[(ch*g.kh+r)*g.kw+s])
						acc += k * (int32(qin[(ch*g.h+ih)*g.w+iw]) - qp.Zero)
					}
				}
				out[(ch*outH+oh)*outW+ow] = float32(acc)*(qp.Scale*ql.ws[ch]) + ql.bias[ch]
			}
		}
	}
	return out
}

// TestQDWConvMatchesDirect holds the int8 depthwise kernel to
// qdwReference bit for bit: kernels 1×1, 3×3, 5×5, 7×7 and an
// asymmetric 5×3, strides 1–3, pads 0–3, planes smaller than the
// kernel, and input zero points at both ends of the int8 range, where
// a padded tap that did not cancel exactly would show. Every case runs
// a one-layer quantized model at workers 1 to 3, so channel ranges
// split across goroutines that draw scratch from the one arena.
func TestQDWConvMatchesDirect(t *testing.T) {
	const c = 3
	var geoms []qdwGeom
	for _, k := range [][2]int{{1, 1}, {3, 3}, {5, 5}, {7, 7}, {5, 3}} {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 3; pad++ {
				for _, hw := range [][2]int{{1, 2}, {4, 3}, {7, 7}, {9, 12}} {
					// A window must fit the padded plane for the layer
					// to be well formed.
					if hw[0]+2*pad >= k[0] && hw[1]+2*pad >= k[1] {
						geoms = append(geoms, qdwGeom{hw[0], hw[1], k[0], k[1], stride, pad})
					}
				}
			}
		}
	}
	cases := 0
	for gi, geo := range geoms {
		for _, zx := range []int32{-128, 0, 5, 127} {
			g := dag.New("qdw")
			src := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(c, geo.h, geo.w)})
			dw := g.Add(&nn.DepthwiseConv2D{LayerName: "dw", KH: geo.kh, KW: geo.kw,
				Stride: geo.stride, Pad: geo.pad, Bias: gi%2 == 0}, src)
			if err := g.Finalize(); err != nil {
				t.Fatal(err)
			}
			m := Load(g, int64(gi))
			qp := tensor.QParams{Scale: 1.0 / 32, Zero: zx}
			cal := &Calibration{Ranges: map[int]tensor.QParams{src: qp, dw: {Scale: 1, Zero: 0}}}
			if _, err := m.Quantize(cal); err != nil {
				t.Fatal(err)
			}
			// Every code from −128 to 127 is reachable: x = (q − zx)·scale
			// is exact and quantizes back to q.
			in := tensor.New(tensor.NewCHW(c, geo.h, geo.w))
			for i := range in.Data {
				q := int32((i*37+gi*11)%256 - 128)
				in.Data[i] = float32(q-zx) * qp.Scale
			}
			qin := make([]int8, len(in.Data))
			quantizeAct(qin, in.Data, qp, 1)
			out := g.Node(dw).OutShape
			want := qdwReference(qin, m.quant.layers[dw], qp, c, geo, out.H(), out.W())
			for workers := 1; workers <= 3; workers++ {
				got, err := m.Parallel(workers).Forward(in)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range want {
					if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
						t.Fatalf("%+v zx=%d workers=%d: element %d = %v, want %v",
							geo, zx, workers, i, got.Data[i], v)
					}
				}
			}
			cases++
		}
	}
	t.Logf("%d cases", cases)
}

// TestQDWConvWindowPastPaddedPlane: convOut truncates toward zero, so a
// plane smaller than the kernel at stride 2 or more keeps one window
// that reaches past the bottom or right pad. The int8 kernel must read
// that overhang as padding, as qdwReference skips it.
func TestQDWConvWindowPastPaddedPlane(t *testing.T) {
	const c = 3
	for i, geo := range []qdwGeom{
		{2, 2, 3, 3, 2, 0},
		{2, 20, 3, 3, 2, 0},
		{20, 2, 3, 3, 2, 0},
		{2, 2, 5, 5, 3, 1},
		{2, 4, 7, 7, 2, 2},
		{1, 9, 5, 3, 3, 1},
	} {
		g := dag.New("qdwpast")
		src := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(c, geo.h, geo.w)})
		dw := g.Add(&nn.DepthwiseConv2D{LayerName: "dw", KH: geo.kh, KW: geo.kw,
			Stride: geo.stride, Pad: geo.pad, Bias: true}, src)
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		m := Load(g, int64(i))
		qp := tensor.QParams{Scale: 1.0 / 32, Zero: 127}
		cal := &Calibration{Ranges: map[int]tensor.QParams{src: qp, dw: {Scale: 1, Zero: 0}}}
		if _, err := m.Quantize(cal); err != nil {
			t.Fatal(err)
		}
		in := randInput(tensor.NewCHW(c, geo.h, geo.w), int64(i))
		qin := make([]int8, len(in.Data))
		quantizeAct(qin, in.Data, qp, 1)
		out := g.Node(dw).OutShape
		want := qdwReference(qin, m.quant.layers[dw], qp, c, geo, out.H(), out.W())
		got, err := m.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range want {
			if math.Float32bits(got.Data[j]) != math.Float32bits(v) {
				t.Fatalf("%+v: element %d = %v, want %v", geo, j, got.Data[j], v)
			}
		}
	}
}
