package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// Direct-vs-GEMM equivalence: the pure-Go kernel paths accumulate
// every output element in the same fixed order, so their outputs must
// compare equal element by element — at any worker count. Paths that
// route to the FMA assembly tile (kernelAsm, and kernelGEMM past the
// tile guard when the CPU has it) keep the same accumulation order but
// fuse each multiply-add into one rounding; they compare within the
// envelope documented in asm_parity_test.go instead.

// withKernel pins the model's kernel path for the tests that compare
// the paths; a caller outside the tests only ever gets the zero value.
func (m *Model) withKernel(k kernelPath) *Model {
	m.kernel = k
	return m
}

func randInput(shape tensor.Shape, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(shape)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}
	return in
}

// runBothKernels executes the model's forward pass on the direct path
// (1 worker) and on every GEMM selection (auto, panel, asm) at several
// worker counts. The panel loop must match the direct output bitwise;
// selections that can reach the FMA asm tile compare within the
// documented tolerance (and bitwise too when the asm path is off).
func runBothKernels(t *testing.T, g *dag.Graph, seed int64) {
	t.Helper()
	in := randInput(g.Node(g.Source()).OutShape, seed+100)
	m := Load(g, seed)
	ref, err := m.withKernel(kernelDirect).Forward(in.Clone())
	if err != nil {
		t.Fatalf("direct forward: %v", err)
	}
	for _, kern := range []kernelPath{kernelGEMM, kernelPanel, kernelAsm} {
		exact := !asmOK || kern == kernelPanel
		for _, workers := range []int{1, 3, 8} {
			got, err := m.withKernel(kern).Parallel(workers).Forward(in.Clone())
			if err != nil {
				t.Fatalf("%v forward (workers=%d): %v", kern, workers, err)
			}
			if !got.Shape.Equal(ref.Shape) {
				t.Fatalf("%v workers=%d: shape %v, want %v", kern, workers, got.Shape, ref.Shape)
			}
			assertSliceParity(t, fmt.Sprintf("%v workers=%d vs direct", kern, workers),
				got.Data, ref.Data, exact)
		}
	}
	m.withKernel(kernelGEMM).Parallel(1)
}

func TestConvDirectGEMMParity(t *testing.T) {
	cases := []struct {
		inC, inH, inW int
		l             nn.Conv2D
	}{
		{3, 15, 15, nn.Conv2D{OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}},
		{3, 16, 16, nn.Conv2D{OutC: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}},
		{4, 13, 13, nn.Conv2D{OutC: 6, KH: 5, KW: 5, Stride: 3, Pad: 2, Bias: true}},
		{8, 14, 14, nn.Conv2D{OutC: 16, KH: 1, KW: 1, Stride: 1}},           // pure-GEMM fast path
		{8, 14, 14, nn.Conv2D{OutC: 16, KH: 1, KW: 1, Stride: 2}},           // strided 1x1, must lower
		{6, 12, 12, nn.Conv2D{OutC: 8, KH: 3, KW: 3, Stride: 1, Groups: 2}}, // grouped
		{9, 11, 11, nn.Conv2D{OutC: 9, KH: 3, KW: 3, Stride: 2, Groups: 3, Pad: 1, Bias: true}},
		{4, 10, 12, nn.Conv2D{OutC: 5, KH: 1, KW: 3, Stride: 1, PadH: -1, PadW: 1}}, // rectangular
		{4, 12, 10, nn.Conv2D{OutC: 5, KH: 3, KW: 1, Stride: 1, PadH: 1, PadW: -1}},
		{2, 9, 9, nn.Conv2D{OutC: 4, KH: 7, KW: 7, Stride: 1, Pad: 3, Bias: true}}, // window wider than half the input
		{1, 5, 5, nn.Conv2D{OutC: 300, KH: 3, KW: 3, Stride: 1, Pad: 1}},           // more rows than GEMM block
	}
	for i, c := range cases {
		c := c
		t.Run(fmt.Sprintf("case%d_k%dx%d_s%d_g%d", i, c.l.KH, c.l.KW, c.l.Stride, c.l.Groups), func(t *testing.T) {
			g := dag.New(fmt.Sprintf("convparity%d", i))
			in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(c.inC, c.inH, c.inW)})
			c.l.LayerName = "conv"
			g.Add(&c.l, in)
			if err := g.Finalize(); err != nil {
				t.Fatal(err)
			}
			runBothKernels(t, g, int64(i)+7)
		})
	}
}

func TestDWConvDirectGEMMParity(t *testing.T) {
	cases := []struct {
		inC, inH, inW int
		l             nn.DepthwiseConv2D
	}{
		{8, 16, 16, nn.DepthwiseConv2D{KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}},
		{8, 15, 15, nn.DepthwiseConv2D{KH: 3, KW: 3, Stride: 2, Pad: 1}},
		{4, 9, 9, nn.DepthwiseConv2D{KH: 5, KW: 5, Stride: 1, Pad: 2, Bias: true}},
		{3, 7, 7, nn.DepthwiseConv2D{KH: 7, KW: 7, Stride: 1, Pad: 3}},               // 7×7 kernel over a 7×7 plane
		{5, 12, 12, nn.DepthwiseConv2D{KH: 3, KW: 3, Stride: 3}},                     // no pad: no window overhangs
		{3, 11, 10, nn.DepthwiseConv2D{KH: 5, KW: 3, Stride: 2, Pad: 1, Bias: true}}, // asymmetric kernel
		{2, 5, 1, nn.DepthwiseConv2D{KH: 3, KW: 3, Stride: 1, Pad: 1}},               // plane narrower than the kernel
		{3, 10, 13, nn.DepthwiseConv2D{KH: 3, KW: 3, Stride: 2, Pad: 2}},             // last window overhangs the input
		// Planes smaller than the kernel at stride ≥ 2: convOut truncates
		// toward zero, so one window reaches past the bottom or right pad.
		{3, 2, 2, nn.DepthwiseConv2D{KH: 3, KW: 3, Stride: 2}},
		{3, 2, 20, nn.DepthwiseConv2D{KH: 3, KW: 3, Stride: 2}},
		{3, 20, 2, nn.DepthwiseConv2D{KH: 3, KW: 3, Stride: 2}},
		{3, 2, 2, nn.DepthwiseConv2D{KH: 5, KW: 5, Stride: 3, Pad: 1, Bias: true}},
		{3, 2, 4, nn.DepthwiseConv2D{KH: 7, KW: 7, Stride: 2, Pad: 2}},
		{3, 1, 9, nn.DepthwiseConv2D{KH: 5, KW: 3, Stride: 3, Pad: 1}},
	}
	for i, c := range cases {
		c := c
		t.Run(fmt.Sprintf("case%d_k%dx%d_s%d_p%d", i, c.l.KH, c.l.KW, c.l.Stride, c.l.Pad), func(t *testing.T) {
			g := dag.New(fmt.Sprintf("dwparity%d", i))
			in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(c.inC, c.inH, c.inW)})
			c.l.LayerName = "dw"
			g.Add(&c.l, in)
			if err := g.Finalize(); err != nil {
				t.Fatal(err)
			}
			runBothKernels(t, g, int64(i)+31)
		})
	}
}

func TestDenseDirectGEMMParity(t *testing.T) {
	for i, outN := range []int{1, 10, 257} {
		g := dag.New(fmt.Sprintf("denseparity%d", i))
		in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewVec(123)})
		g.Add(&nn.Dense{LayerName: "fc", Out: outN, Bias: i%2 == 0}, in)
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		runBothKernels(t, g, int64(i)+51)
	}
}

// Golden values must hold on both kernel paths.
func TestConvGoldenBothKernels(t *testing.T) {
	g := dag.New("golden")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 3, 3)})
	g.Add(&nn.Conv2D{LayerName: "conv", OutC: 1, KH: 2, KW: 2, Stride: 1}, in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 1)
	p := m.params[1]
	for i := range p.w {
		p.w[i] = 1
	}
	input, _ := tensor.NewFrom(tensor.NewCHW(1, 3, 3), []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	// Small integers: exact under FMA too, so kernelAsm compares equal.
	want := []float32{12, 16, 24, 28}
	for _, k := range []kernelPath{kernelGEMM, kernelPanel, kernelAsm, kernelDirect} {
		out, err := m.withKernel(k).Forward(input.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if out.Data[i] != w {
				t.Errorf("%v: out[%d] = %g, want %g", k, i, out.Data[i], w)
			}
		}
	}
}

// branchyModel exercises the general execution machinery under the
// arena: a residual Add, a Concat of 1x1 branches, a depthwise stage
// and a dense head, with activations woven through.
func branchyModel(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New("branchy")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(6, 20, 20)})
	c0 := g.Add(&nn.Conv2D{LayerName: "stem", OutC: 6, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, in)
	r0 := g.Add(nn.NewActivation("relu0", nn.ReLU), c0)
	ad := g.Add(&nn.Add{LayerName: "res"}, r0, in)
	b1 := g.Add(&nn.Conv2D{LayerName: "b1", OutC: 4, KH: 1, KW: 1, Stride: 1}, ad)
	b2 := g.Add(&nn.Conv2D{LayerName: "b2", OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 2}, ad)
	cc := g.Add(&nn.Concat{LayerName: "cat"}, b1, b2)
	dw := g.Add(&nn.DepthwiseConv2D{LayerName: "dw", KH: 3, KW: 3, Stride: 2, Pad: 1, Bias: true}, cc)
	r1 := g.Add(nn.NewActivation("relu1", nn.ReLU6), dw)
	gp := g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, r1)
	fc := g.Add(&nn.Dense{LayerName: "fc", Out: 10, Bias: true}, gp)
	g.Add(nn.NewSoftmax("sm"), fc)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestForwardParityBranchy(t *testing.T) {
	runBothKernels(t, branchyModel(t), 17)
}

func TestForwardParityAlexNet(t *testing.T) {
	if testing.Short() {
		t.Skip("full forwards on the direct path are slow")
	}
	for _, name := range []string{"alexnet", "mobilenetv2"} {
		t.Run(name, func(t *testing.T) { runBothKernels(t, models.MustBuild(name), 3) })
	}
}

// Repeated forwards through the same model must be bit-identical:
// recycled (dirty) arena buffers and in-place ops must not leak state
// between runs.
func TestForwardReproducibleAcrossArenaReuse(t *testing.T) {
	g := branchyModel(t)
	m := Load(g, 23).Parallel(4)
	in := randInput(g.Node(g.Source()).OutShape, 99)
	first, err := m.Forward(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	ref := first.Clone() // private copy, in case a bug recycled the sink's buffer
	for rep := 0; rep < 5; rep++ {
		out, err := m.Forward(in.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Data {
			if out.Data[i] != ref.Data[i] {
				t.Fatalf("rep %d: out[%d] = %g, first = %g", rep, i, out.Data[i], ref.Data[i])
			}
		}
	}
}

// The input tensor the caller provides must never be mutated (in-place
// ops are restricted to arena-owned buffers) or recycled.
func TestCallerInputUntouched(t *testing.T) {
	g := dag.New("inputsafe")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(2, 6, 6)})
	// Activation directly on the input: the in-place fast path must
	// refuse to overwrite the caller's buffer.
	a := g.Add(nn.NewActivation("relu", nn.ReLU), in)
	g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, a)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 1)
	input := randInput(tensor.NewCHW(2, 6, 6), 5)
	orig := input.Clone()
	if _, err := m.Forward(input); err != nil {
		t.Fatal(err)
	}
	// Run again so any wrongly recycled buffer would get scribbled on.
	if _, err := m.Forward(randInput(tensor.NewCHW(2, 6, 6), 6)); err != nil {
		t.Fatal(err)
	}
	for i := range orig.Data {
		if input.Data[i] != orig.Data[i] {
			t.Fatalf("caller input mutated at %d: %g != %g", i, input.Data[i], orig.Data[i])
		}
	}
}

// Partitioned execution must keep boundary activations alive: the
// liveness tracker may only retire activations whose consumers all ran
// inside the same Execute call.
func TestBoundaryActivationsSurviveArena(t *testing.T) {
	g := branchyModel(t)
	m := Load(g, 9)
	in := randInput(g.Node(g.Source()).OutShape, 41)
	full, err := m.Forward(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Cut through the middle: mobile side = ancestors of the Concat's
	// branches, boundary tensors ship to the "server" Execute.
	b1, _ := g.NodeByName("b1")
	b2, _ := g.NodeByName("b2")
	mobile := g.Ancestors(b1.ID, b2.ID)
	var prefix, suffix []int
	for _, id := range g.Topo() {
		if mobile[id] {
			prefix = append(prefix, id)
		} else {
			suffix = append(suffix, id)
		}
	}
	acts := map[int]*tensor.Tensor{}
	if err := m.Execute(acts, in.Clone(), prefix); err != nil {
		t.Fatal(err)
	}
	boundary := map[int]*tensor.Tensor{b1.ID: acts[b1.ID], b2.ID: acts[b2.ID]}
	// Interleave an unrelated forward pass: if a boundary buffer had
	// been recycled, this would corrupt it before the suffix runs.
	if _, err := m.Forward(randInput(g.Node(g.Source()).OutShape, 77)); err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(boundary, nil, suffix); err != nil {
		t.Fatal(err)
	}
	got := boundary[g.Sink()]
	for i := range full.Data {
		if got.Data[i] != full.Data[i] {
			t.Fatalf("partitioned output differs at %d: %g != %g", i, got.Data[i], full.Data[i])
		}
	}
}
