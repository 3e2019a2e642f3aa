package engine

import (
	"fmt"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// Batched-vs-solo equivalence: ForwardBatch packs n inputs and runs
// widened GEMMs, but every per-image output element accumulates the
// same products in the same order as a solo Forward, on the same
// driver — useAsm routes on the weights' shape, never on n — so outputs
// are bit-identical at any batch size and worker count, on either tile,
// with the asm path or without it.

// runBatchParity runs each input through a solo Forward and the whole
// set through ForwardBatch, and requires per-image bitwise equality.
// The kernelDirect selection pins the rule stated on that constant: its
// batches run the panel loop and equal the solo reference loops
// exactly (small n only — the reference is slow).
func runBatchParity(t *testing.T, g *dag.Graph, seed int64, ns ...int) {
	t.Helper()
	m := Load(g, seed)
	inShape := g.Node(g.Source()).OutShape
	for _, kern := range []kernelPath{kernelGEMM, kernelDirect} {
		m.withKernel(kern)
		for _, n := range ns {
			if kern == kernelDirect && n > 3 {
				continue
			}
			for _, workers := range []int{1, 3} {
				m.Parallel(workers)
				inputs := make([]*tensor.Tensor, n)
				refs := make([]*tensor.Tensor, n)
				for b := range inputs {
					inputs[b] = randInput(inShape, seed+200+int64(b))
					out, err := m.Forward(inputs[b].Clone())
					if err != nil {
						t.Fatalf("%v n=%d workers=%d: solo forward %d: %v", kern, n, workers, b, err)
					}
					refs[b] = out.Clone()
				}
				got, err := m.ForwardBatch(inputs)
				if err != nil {
					t.Fatalf("%v n=%d workers=%d: batched forward: %v", kern, n, workers, err)
				}
				if len(got) != n {
					t.Fatalf("%v n=%d: got %d outputs", kern, n, len(got))
				}
				for b := range refs {
					if !got[b].Shape.Equal(refs[b].Shape) {
						t.Fatalf("%v n=%d workers=%d image %d: shape %v, want %v", kern, n, workers, b, got[b].Shape, refs[b].Shape)
					}
					assertSameBits(t, fmt.Sprintf("%v n=%d workers=%d image %d vs solo", kern, n, workers, b),
						got[b].Data, refs[b].Data)
				}
			}
		}
	}
	m.withKernel(kernelGEMM).Parallel(1)
}

func TestBatchConvParity(t *testing.T) {
	cases := []struct {
		inC, inH, inW int
		l             nn.Conv2D
	}{
		{3, 15, 15, nn.Conv2D{OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}},
		{8, 14, 14, nn.Conv2D{OutC: 16, KH: 1, KW: 1, Stride: 1}}, // pure-1x1 fast path
		{8, 14, 14, nn.Conv2D{OutC: 16, KH: 1, KW: 1, Stride: 2}}, // strided 1x1, must lower
		{6, 12, 12, nn.Conv2D{OutC: 8, KH: 3, KW: 3, Stride: 2, Groups: 2, Pad: 1, Bias: true}},
		{4, 10, 12, nn.Conv2D{OutC: 5, KH: 1, KW: 3, Stride: 1, PadH: -1, PadW: 1}}, // rectangular
	}
	for i, c := range cases {
		c := c
		t.Run(fmt.Sprintf("case%d_k%dx%d_s%d_g%d", i, c.l.KH, c.l.KW, c.l.Stride, c.l.Groups), func(t *testing.T) {
			g := dag.New(fmt.Sprintf("batchconv%d", i))
			in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(c.inC, c.inH, c.inW)})
			c.l.LayerName = "conv"
			g.Add(&c.l, in)
			if err := g.Finalize(); err != nil {
				t.Fatal(err)
			}
			runBatchParity(t, g, int64(i)+7, 2, 3, 16)
		})
	}
}

func TestBatchDWConvParity(t *testing.T) {
	cases := []struct {
		inC, inH, inW int
		l             nn.DepthwiseConv2D
	}{
		{8, 16, 16, nn.DepthwiseConv2D{KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}},
		{3, 7, 7, nn.DepthwiseConv2D{KH: 7, KW: 7, Stride: 1, Pad: 3}}, // empty interior: all border
		{5, 12, 12, nn.DepthwiseConv2D{KH: 3, KW: 3, Stride: 3}},       // no pad: all interior
	}
	for i, c := range cases {
		c := c
		t.Run(fmt.Sprintf("case%d_k%dx%d_s%d_p%d", i, c.l.KH, c.l.KW, c.l.Stride, c.l.Pad), func(t *testing.T) {
			g := dag.New(fmt.Sprintf("batchdw%d", i))
			in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(c.inC, c.inH, c.inW)})
			c.l.LayerName = "dw"
			g.Add(&c.l, in)
			if err := g.Finalize(); err != nil {
				t.Fatal(err)
			}
			runBatchParity(t, g, int64(i)+31, 2, 3, 16)
		})
	}
}

// Where the AVX-512 tile is live the dense rows run again on the AVX2
// one, so an AVX2-only host is held to solo == batched too.
func TestBatchDenseParity(t *testing.T) {
	run := func() {
		for i, outN := range []int{1, 10, 257} {
			g := dag.New(fmt.Sprintf("batchdense%d", i))
			in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewVec(123)})
			g.Add(&nn.Dense{LayerName: "fc", Out: outN, Bias: i%2 == 0}, in)
			if err := g.Finalize(); err != nil {
				t.Fatal(err)
			}
			runBatchParity(t, g, int64(i)+51, 2, 3, 16)
		}
	}
	run()
	if asmAVX512OK {
		onAVX2Tile(run)
	}
}

// Flatten with spatial extent > 1 needs a real transpose in the packed
// layout; feed it straight into a dense head like AlexNet's classifier.
func TestBatchFlattenDenseParity(t *testing.T) {
	g := dag.New("batchflat")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(4, 6, 6)})
	cv := g.Add(&nn.Conv2D{LayerName: "conv", OutC: 6, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, in)
	fl := g.Add(&nn.Flatten{LayerName: "flat"}, cv)
	g.Add(&nn.Dense{LayerName: "fc", Out: 9, Bias: true}, fl)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	runBatchParity(t, g, 63, 2, 3, 16)
}

// LRN + pools + softmax through an AlexNet-style stack.
func TestBatchLRNPoolParity(t *testing.T) {
	g := dag.New("batchlrn")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(3, 17, 17)})
	cv := g.Add(&nn.Conv2D{LayerName: "conv", OutC: 8, KH: 5, KW: 5, Stride: 2, Pad: 2, Bias: true}, in)
	r0 := g.Add(nn.NewActivation("relu", nn.ReLU), cv)
	lr := g.Add(nn.NewLRN("lrn", 5), r0)
	mp := g.Add(nn.NewMaxPool2D("pool", 3, 2, 0), lr)
	ap := g.Add(nn.NewAvgPool2D("avg", 2, 1, 0), mp)
	fl := g.Add(&nn.Flatten{LayerName: "flat"}, ap)
	fc := g.Add(&nn.Dense{LayerName: "fc", Out: 7, Bias: true}, fl)
	g.Add(nn.NewSoftmax("sm"), fc)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	runBatchParity(t, g, 71, 2, 3, 16)
}

// The branchy model covers Add, Concat, BatchNorm-free residual wiring,
// depthwise, GAP and the dense head under the liveness tracker.
func TestBatchForwardParityBranchy(t *testing.T) {
	runBatchParity(t, branchyModel(t), 17, 2, 3, 16)
}

func TestBatchForwardParityMobileNetV2(t *testing.T) {
	if testing.Short() {
		t.Skip("full mobilenetv2 batched forward is slow")
	}
	runBatchParity(t, models.MustBuild("mobilenetv2"), 3, 2)
}

// The dense tail a default server runs as one pass for the jobs parked
// at AlexNet's conv5/pool, at its real sizes — [256x6x6] flattened to
// 9216, then 4096, 4096, 1000 — and at group sizes on both sides of the
// tile's 16 columns. The small dense rows above never leave one K
// panel; this one's first layer reduces over 9216 and its packed
// flatten is a real transpose. An image's output must not depend on the
// size of its group, 1 to 32: one driver handles them all, in K panels
// as deep as the pack buffer holds at each width — one at up to 16
// columns, 8 192 deep at 32 — so it equals its solo pass bitwise.
func TestBatchDenseTailParityAlexNet(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("234 MB of fully connected weights")
	}
	g := dag.New("alextail")
	prev := g.Add(&nn.Input{LayerName: "conv5/pool", Shape: tensor.NewCHW(256, 6, 6)})
	prev = g.Add(&nn.Flatten{LayerName: "fc6/flatten"}, prev)
	for _, l := range []struct {
		name string
		out  int
	}{{"fc6", 4096}, {"fc7", 4096}} {
		prev = g.Add(nn.NewDropout(l.name+"/dropout", 0.5), prev)
		prev = g.Add(&nn.Dense{LayerName: l.name + "/fc", Out: l.out, Bias: true}, prev)
		prev = g.Add(nn.NewActivation(l.name+"/relu", nn.ReLU), prev)
	}
	prev = g.Add(&nn.Dense{LayerName: "fc8/fc", Out: 1000, Bias: true}, prev)
	g.Add(nn.NewSoftmax("fc8/softmax"), prev)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 91)
	const most, alone = 32, 2 // solo passes stream the weights once each: two are enough
	inputs, solo := make([]*tensor.Tensor, most), make([]*tensor.Tensor, alone)
	for b := range inputs {
		inputs[b] = randInput(tensor.NewCHW(256, 6, 6), 300+int64(b))
	}
	for b := range solo {
		out, err := m.Forward(inputs[b])
		if err != nil {
			t.Fatal(err)
		}
		solo[b] = out.Clone()
	}
	var widest []*tensor.Tensor
	for _, workers := range []int{1, 3} {
		m.Parallel(workers)
		for _, n := range []int{most, 16, 8, 2} {
			got, err := m.ForwardBatch(inputs[:n])
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if widest == nil {
				widest = got
			}
			for b := range got {
				ctx := fmt.Sprintf("n=%d workers=%d image %d", n, workers, b)
				if b < alone {
					assertSameBits(t, ctx+" vs solo", got[b].Data, solo[b].Data)
				}
				assertSliceParity(t, ctx+" vs its group of 32", got[b].Data, widest[b].Data, true)
			}
		}
	}
}

// Partitioned batched execution — the server path: boundary tensors
// from n jobs are packed per boundary node and the suffix executes once
// at batch n. Ragged groups (batch sizes that aren't a divisor of the
// job count) are the common case when a coalescer flushes on max size.
func TestBatchSuffixParityRagged(t *testing.T) {
	g := branchyModel(t)
	m := Load(g, 9).Parallel(2)
	b1, _ := g.NodeByName("b1")
	b2, _ := g.NodeByName("b2")
	gap, _ := g.NodeByName("gap")
	mobile := g.Ancestors(b1.ID, b2.ID)
	var prefix, suffix []int
	for _, id := range g.Topo() {
		if mobile[id] {
			prefix = append(prefix, id)
		} else {
			suffix = append(suffix, id)
		}
	}
	// The suffix in two lists, so the pooled features come back beside
	// the sink: body (concat, depthwise, ReLU6, pool) and the dense head.
	var body, head []int
	for i, id := range suffix {
		if id == gap.ID {
			body, head = suffix[:i+1], suffix[i+1:]
		}
	}
	const jobs = 7
	bounds1 := make([]*tensor.Tensor, 0, jobs)
	bounds2 := make([]*tensor.Tensor, 0, jobs)
	refs := make([]*tensor.Tensor, 0, jobs)
	feats := make([]*tensor.Tensor, 0, jobs)
	for j := 0; j < jobs; j++ {
		in := randInput(g.Node(g.Source()).OutShape, 300+int64(j))
		acts := map[int]*tensor.Tensor{}
		if err := m.Execute(acts, in, prefix); err != nil {
			t.Fatal(err)
		}
		bounds1 = append(bounds1, acts[b1.ID].Clone())
		bounds2 = append(bounds2, acts[b2.ID].Clone())
		solo := map[int]*tensor.Tensor{b1.ID: acts[b1.ID], b2.ID: acts[b2.ID]}
		if err := m.Execute(solo, nil, body); err != nil {
			t.Fatal(err)
		}
		feats = append(feats, solo[gap.ID].Clone())
		if err := m.Execute(solo, nil, head); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, solo[g.Sink()].Clone())
	}
	// Ragged split 7 = 3 + 3 + 1, as a max-3 coalescer would flush it.
	for lo := 0; lo < jobs; lo += 3 {
		hi := lo + 3
		if hi > jobs {
			hi = jobs
		}
		n := hi - lo
		p1, err := PackBatch(bounds1[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		p2, err := PackBatch(bounds2[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		acts := map[int]*tensor.Tensor{b1.ID: p1, b2.ID: p2}
		if err := m.ExecuteBatch(acts, n, nil, body); err != nil {
			t.Fatal(err)
		}
		pooled, err := UnpackBatch(acts[gap.ID], n)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ExecuteBatch(acts, n, nil, head); err != nil {
			t.Fatal(err)
		}
		outs, err := UnpackBatch(acts[g.Sink()], n)
		if err != nil {
			t.Fatal(err)
		}
		for b, out := range outs {
			// Every layer is exact, asm or not: the packed depthwise and
			// ReLU6 round like the solo ones, and the dense head takes the
			// same driver alone as in a group.
			for i, want := range feats[lo+b].Data {
				if pooled[b].Data[i] != want {
					t.Fatalf("group %d image %d: pooled[%d] = %g, solo = %g", lo/3, b, i, pooled[b].Data[i], want)
				}
			}
			ref := refs[lo+b]
			assertSameBits(t, fmt.Sprintf("group %d image %d vs solo", lo/3, b), out.Data, ref.Data)
			if got, want := ArgmaxBatch(acts[g.Sink()], n, b), Argmax(ref); got != want {
				t.Fatalf("group %d image %d: class %d, solo %d", lo/3, b, got, want)
			}
		}
	}
}

// TestBatchBlockParityExact: everything of a MobileNet block but the
// dense head — pointwise convs, BatchNorm with and without a clamp
// folded in, lone ReLU, residual add, 3×3 depthwise at both strides —
// is bit-identical batched and solo on every GEMM selection with the
// assembly on, not merely within the FMA tolerance. Batching changes
// the length of each channel's span (n·7·7), so which elements the
// vector head takes and which the scalar tail, and it steps the
// depthwise through C·n planes; the convs stay on one driver (both
// widths fill a tile), where batching only relocates a column.
func TestBatchBlockParityExact(t *testing.T) {
	g := dag.New("block")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(8, 7, 7)})
	ex := g.Add(&nn.Conv2D{LayerName: "expand", OutC: 24, KH: 1, KW: 1, Stride: 1}, in)
	b0 := g.Add(nn.NewBatchNorm("expand/bn"), ex)
	r0 := g.Add(nn.NewActivation("expand/relu6", nn.ReLU6), b0)
	dw := g.Add(&nn.DepthwiseConv2D{LayerName: "dwise", KH: 3, KW: 3, Stride: 1, Pad: 1}, r0)
	b1 := g.Add(nn.NewBatchNorm("dwise/bn"), dw)
	r1 := g.Add(nn.NewActivation("dwise/relu6", nn.ReLU6), b1)
	pr := g.Add(&nn.Conv2D{LayerName: "project", OutC: 8, KH: 1, KW: 1, Stride: 1}, r1)
	b2 := g.Add(nn.NewBatchNorm("project/bn"), pr)
	ad := g.Add(&nn.Add{LayerName: "add"}, b2, in)
	d2 := g.Add(&nn.DepthwiseConv2D{LayerName: "down", KH: 3, KW: 3, Stride: 2, Pad: 1, Bias: true}, ad)
	r2 := g.Add(nn.NewActivation("down/relu", nn.ReLU), d2)
	g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, r2)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 5)
	inShape := g.Node(g.Source()).OutShape
	for _, kern := range []kernelPath{kernelGEMM, kernelAsm, kernelPanel} {
		for _, n := range []int{2, 3} {
			for _, workers := range []int{1, 3} {
				m.withKernel(kern).Parallel(workers)
				inputs := make([]*tensor.Tensor, n)
				refs := make([]*tensor.Tensor, n)
				for b := range inputs {
					inputs[b] = randInput(inShape, 400+int64(b))
					out, err := m.Forward(inputs[b].Clone())
					if err != nil {
						t.Fatal(err)
					}
					refs[b] = out.Clone()
				}
				got, err := m.ForwardBatch(inputs)
				if err != nil {
					t.Fatal(err)
				}
				for b := range refs {
					assertSameBits(t, fmt.Sprintf("%v n=%d workers=%d image %d vs solo", kern, n, workers, b),
						got[b].Data, refs[b].Data)
				}
			}
		}
	}
}

// PackBatch must reject shape mismatches; UnpackBatch must reject
// non-divisible batches.
func TestPackBatchValidation(t *testing.T) {
	a := tensor.New(tensor.NewCHW(2, 3, 3))
	b := tensor.New(tensor.NewCHW(2, 3, 4))
	if _, err := PackBatch([]*tensor.Tensor{a, b}); err == nil {
		t.Fatal("want shape-mismatch error")
	}
	if _, err := PackBatch(nil); err == nil {
		t.Fatal("want empty-batch error")
	}
	if _, err := UnpackBatch(tensor.New(tensor.NewCHW(5, 3, 3)), 2); err == nil {
		t.Fatal("want non-divisible error")
	}
}
