package engine

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// Engine microbenchmarks: run with
//
//	go test -bench 'Conv2D|Forward_' -benchmem ./internal/engine/
//
// Each heavy benchmark compares the GEMM path against the direct
// reference at GOMAXPROCS workers. Results are recorded in the
// "Engine performance" section of EXPERIMENTS.md.

func benchModel(b *testing.B, g *dag.Graph, k kernelPath, workers int) {
	b.Helper()
	m := Load(g, 1).withKernel(k).Parallel(workers)
	in := randInput(g.Node(g.Source()).OutShape, 7)
	if _, err := m.Forward(in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(in); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBothKernels(b *testing.B, g *dag.Graph) {
	b.Helper()
	workers := runtime.GOMAXPROCS(0)
	b.Run("gemm", func(b *testing.B) { benchModel(b, g, kernelGEMM, workers) })
	b.Run("panel", func(b *testing.B) { benchModel(b, g, kernelPanel, workers) })
	if asmEnabled() {
		b.Run("asm", func(b *testing.B) { benchModel(b, g, kernelAsm, workers) })
	}
	b.Run("direct", func(b *testing.B) { benchModel(b, g, kernelDirect, workers) })
}

func convGraph(b *testing.B, inC, hw int, l nn.Conv2D) *dag.Graph {
	b.Helper()
	g := dag.New("bench")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(inC, hw, hw)})
	l.LayerName = "conv"
	g.Add(&l, in)
	if err := g.Finalize(); err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkConv2D_3x3_64x56(b *testing.B) {
	benchBothKernels(b, convGraph(b, 64, 56, nn.Conv2D{OutC: 64, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}))
}

func BenchmarkConv2D_1x1_256x28(b *testing.B) {
	benchBothKernels(b, convGraph(b, 256, 28, nn.Conv2D{OutC: 64, KH: 1, KW: 1, Stride: 1}))
}

func BenchmarkConv2D_11x11s4_alexstem(b *testing.B) {
	benchBothKernels(b, convGraph(b, 3, 224, nn.Conv2D{OutC: 64, KH: 11, KW: 11, Stride: 4, Pad: 2, Bias: true}))
}

func BenchmarkDWConv2D_3x3_144x56(b *testing.B) {
	g := dag.New("bench")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(144, 56, 56)})
	g.Add(&nn.DepthwiseConv2D{LayerName: "dw", KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, in)
	if err := g.Finalize(); err != nil {
		b.Fatal(err)
	}
	benchBothKernels(b, g)
}

func BenchmarkDense_4096x4096(b *testing.B) {
	g := dag.New("bench")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewVec(4096)})
	g.Add(&nn.Dense{LayerName: "fc", Out: 4096, Bias: true}, in)
	if err := g.Finalize(); err != nil {
		b.Fatal(err)
	}
	benchBothKernels(b, g)
	// The int8 leg is the memory-bound story in isolation: streamed
	// weights shrink 4x, so the GEMV speedup tracks bytes, not MACs.
	b.Run("quant", func(b *testing.B) { benchQuantModel(b, g) })
}

func BenchmarkForward_alexnet(b *testing.B) {
	g := models.MustBuild("alexnet")
	benchBothKernels(b, g)
	b.Run("quant", func(b *testing.B) { benchQuantModel(b, g) })
}

func BenchmarkForward_mobilenetv2(b *testing.B) {
	g := models.MustBuild("mobilenetv2")
	benchBothKernels(b, g)
	b.Run("quant", func(b *testing.B) { benchQuantModel(b, g) })
}

// benchQuantModel times the int8 inference path. With the VPMADDWD
// assembly tile (gemm_asm_amd64.s) int8 compute beats fp32 on the
// conv- and dense-heavy models: two multiply-adds per lane-pair per
// instruction against FMA's one. Without it (noasm, non-AVX2) scalar
// int8 has no throughput edge over scalar float32, and the quantized
// path's payoff reverts to the 4x smaller wire payload plus the
// modeled speedup on int8-capable mobile targets (see EXPERIMENTS.md).
func benchQuantModel(b *testing.B, g *dag.Graph) {
	b.Helper()
	m := Load(g, 1).Parallel(runtime.GOMAXPROCS(0))
	cal, err := m.CalibrateSynthetic(2)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Quantize(cal); err != nil {
		b.Fatal(err)
	}
	in := randInput(g.Node(g.Source()).OutShape, 7)
	if _, err := m.Forward(in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchedForward measures cross-job batching on the server's
// actual workload: the deepest mobilenetv2 cut (boundary after the
// head's global average pool, the cut JPS picks on low-bandwidth
// channels where the 5 KB boundary minimizes upload). The remaining
// suffix — the 1280x1000 dense head — is weight-streaming bound at
// batch 1: the tile reads 5 MB of weights for 1.3 MFLOP of work.
// Packing N jobs amortizes that stream into one GEMM, the win batching
// exists for. ns/inference is ns/op divided by N, directly comparable
// across subbenchmarks *of the same suffix*. The acceptance bar is N=32
// at >= 2x over N=1 on the dense head. Its legs cover every
// power-of-two group a batching server forms, N=1 included: every N
// runs the same tile (table in EXPERIMENTS.md).
//
// The convsuffix legs run a conv-dominated suffix instead: alexnet
// cut after conv2's pool, so the batched conv3–5 layers exercise the
// batched fused-im2col packer (image-boundary window splitting)
// rather than the pure-1x1 and dense fast paths. Its per-inference
// times sit ~250x above the dense head's — the suffix does ~190
// MFLOP/inference against the head's ~1.3 — so the two tag families
// must never be compared to each other. (These legs were previously
// tagged "/tiled", which invited exactly that apples-to-oranges
// reading of the results table.) What this suffix gains from a batch —
// its gate reads ≈ 0.35–0.45 per inference at N=32 — is not the
// convolutions': it ends in fc6–fc8, and that is where the reuse is.
// The last two families take the suffix apart at conv5/pool, the unit
// a default server parks jobs at. densetail is fc6–fc8 alone, 234 MB of
// weights streamed once per pass whatever N is: the GEMM takes K as
// deep as the pack buffer holds at the group's width — 16 384 from N=1
// to the tile's 16 columns, 8 192 at N=32's two strips — and reads the
// weights in row order. From N=1 to 16 a pass costs about the same.
// N=32 runs two strips against the one stream of the weights, ≈ 1.7
// times N=16's pass (≈ 0.85 per inference; ≈ 2.1 and 1.07 in asmKC
// panels). densetail/panel is N=1 pinned to the pure-Go route, the
// matrix-vector loop: the yardstick the gate holds N=8 to (≈ 0.10–0.15
// per inference; gated at 0.16, which the asmKC-panelled sweep,
// 0.19–0.24, fails) — against the tile's own N=1, which such a
// regression slows too, the ratio would not see it. convspan is
// conv1/pool to conv5/pool, what such a server runs for one job at a
// time because companions buy it ≈ 1.1–1.3x (N=8 against N=1;
// reported, not gated).
// Its N=1 leg is conv GEMMs alone: ≈ 18–24 ms on the AVX-512 tile,
// ≈ 23–32 on the AVX2 one, on the 2-vCPU reference host.
// Both run at one engine worker, which is what a server's pool worker
// has.
func BenchmarkBatchedForward(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	benchBatchedSuffix(b, "mobilenetv2", "head/gap", "", procs, kernelGEMM, []int{1, 2, 4, 8, 16, 32}, "/densehead")
	benchBatchedSuffix(b, "alexnet", "conv2/pool", "", procs, kernelGEMM, []int{1, 32}, "/convsuffix")
	benchBatchedSuffix(b, "alexnet", "conv5/pool", "", 1, kernelGEMM, []int{1, 2, 8, 16, 32}, "/densetail")
	benchBatchedSuffix(b, "alexnet", "conv5/pool", "", 1, kernelPanel, []int{1}, "/densetail/panel")
	benchBatchedSuffix(b, "alexnet", "conv1/pool", "conv5/pool", 1, kernelGEMM, []int{1, 8}, "/convspan")
}

// BenchmarkSegment_mobilenetv2_tail times one Execute over the node
// list a forwarding middle stage runs per job when the client cuts
// after bneck15/add and the stage hands off after head/gap — three
// pointwise GEMMs with n = 7·7 columns, one 3×3 depthwise and their
// BN/ReLU6 nodes, at one worker. It is the unit the chain-2hop workload
// repeats 64 times a round, so its ms/op × 64 ÷ cores is that
// workload's CPU floor.
func BenchmarkSegment_mobilenetv2_tail(b *testing.B) {
	g := models.MustBuild("mobilenetv2")
	m := Load(g, 1)
	from, ok := g.NodeByName("bneck15/add")
	to, ok2 := g.NodeByName("head/gap")
	if !ok || !ok2 {
		b.Fatal("mobilenetv2 lost bneck15/add or head/gap")
	}
	done, upTo := g.Ancestors(from.ID), g.Ancestors(to.ID)
	var prefix, segment []int
	for _, id := range g.Topo() {
		switch {
		case done[id]:
			prefix = append(prefix, id)
		case upTo[id]:
			segment = append(segment, id)
		}
	}
	acts := map[int]*tensor.Tensor{}
	if err := m.Execute(acts, randInput(g.Node(g.Source()).OutShape, 7), prefix); err != nil {
		b.Fatal(err)
	}
	boundary := acts[from.ID].Clone()
	run := func() {
		acts := map[int]*tensor.Tensor{from.ID: boundary}
		if err := m.Execute(acts, nil, segment); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// benchBatchedSuffix cuts the model at the named boundary and times
// ExecuteBatch over the suffix — as far as the layer named upTo, the
// sink when that is empty — with the given engine workers and kernel
// path, at each batch size, as N=<n><tag> legs.
func benchBatchedSuffix(b *testing.B, model, cut, upTo string, workers int, kern kernelPath, sizes []int, tag string) {
	b.Helper()
	g := models.MustBuild(model)
	m := Load(g, 1).Parallel(workers).withKernel(kern)
	boundary, ok := g.NodeByName(cut)
	if !ok {
		b.Fatalf("%s has no %s node", model, cut)
	}
	last := g.Sink()
	if upTo != "" {
		node, ok := g.NodeByName(upTo)
		if !ok {
			b.Fatalf("%s has no %s node", model, upTo)
		}
		last = node.ID
	}
	mobile, wanted := g.Ancestors(boundary.ID), g.Ancestors(last)
	var prefix, suffix []int
	for _, id := range g.Topo() {
		if mobile[id] {
			prefix = append(prefix, id)
		} else if wanted[id] {
			suffix = append(suffix, id)
		}
	}
	acts := map[int]*tensor.Tensor{}
	if err := m.Execute(acts, randInput(g.Node(g.Source()).OutShape, 7), prefix); err != nil {
		b.Fatal(err)
	}
	bt := acts[boundary.ID].Clone()

	for _, n := range []int(sizes) {
		b.Run(fmt.Sprintf("N=%d%s", n, tag), func(b *testing.B) {
			tensors := make([]*tensor.Tensor, n)
			for i := range tensors {
				tensors[i] = bt.Clone()
			}
			packed, err := PackBatch(tensors)
			if err != nil {
				b.Fatal(err)
			}
			run := func() {
				acts := map[int]*tensor.Tensor{boundary.ID: packed}
				if err := m.ExecuteBatch(acts, n, nil, suffix); err != nil {
					b.Fatal(err)
				}
			}
			run() // warm the arena at this batch size
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/inference")
		})
	}
}

// TestForwardSteadyStateAllocs is the -benchmem assertion of the
// acceptance criteria: once the arena is warm, a Forward pass performs
// O(1) tensor allocations — the sink tensor it hands to the caller
// plus fixed per-call bookkeeping — instead of one buffer per layer.
func TestForwardSteadyStateAllocs(t *testing.T) {
	g := dag.New("alloc")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(16, 48, 48)})
	prev := in
	// Enough conv/activation pairs that per-layer allocation would be
	// obvious: each activation is 16·48·48·4 ≈ 147 KiB.
	for i := 0; i < 6; i++ {
		c := g.Add(&nn.Conv2D{LayerName: fmt.Sprintf("c%d", i), OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, prev)
		prev = g.Add(nn.NewActivation(fmt.Sprintf("r%d", i), nn.ReLU), c)
	}
	gp := g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, prev)
	g.Add(&nn.Dense{LayerName: "fc", Out: 10, Bias: true}, gp)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 1) // workers=1: goroutine spawns would count as allocations
	input := randInput(tensor.NewCHW(16, 48, 48), 3)
	// One activation is ~147 KiB and the model has 15 layers; without
	// the arena a Forward allocates >1.8 MiB. Steady state must stay
	// under a single activation: essentially just the sink vector the
	// caller keeps (bookkeeping and kernel closures are all pooled or
	// guarded — see serialSpan and the Model state pools).
	checkSteadyStateAllocs(t, m, input, 64<<10, 8)
}

// TestForwardSteadyStateAllocsMobilenet pins the alloc count on the
// real depthwise-separable model: 153 layers of mixed kernels (GEMM
// conv, depthwise split, batchnorm, residual adds) must still run at
// O(1) steady-state allocations. Before the serialSpan guards and the
// execState/acts pools this sat at ~69 allocs/op — one escaping
// parallelFor closure per heavy kernel call plus per-call bookkeeping.
func TestForwardSteadyStateAllocsMobilenet(t *testing.T) {
	if testing.Short() {
		t.Skip("mobilenetv2 forwards are ~100ms each")
	}
	g, err := models.Build("mobilenetv2")
	if err != nil {
		t.Fatal(err)
	}
	m := Load(g, 1)
	input := randInput(g.Node(g.Source()).OutShape, 3)
	checkSteadyStateAllocs(t, m, input, 16<<10, 8)
}

// TestForwardSteadyStateAllocsPools pins the two pooling layers, which
// neither model above has: pool2d must test serialSpan before it builds
// the parallelFor closure, or every pool layer of a workers = 1 forward
// allocates one (three per AlexNet job). The separate maxpool/avgpool
// drivers read 5.0 allocs/op on this graph (one run in three 6.1: a
// stray runtime allocation inside the ten passes) and a closure built
// before the guard reads 7, so the ceiling is 6.
func TestForwardSteadyStateAllocsPools(t *testing.T) {
	g := dag.New("alloc-pools")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(8, 32, 32)})
	c1 := g.Add(&nn.Conv2D{LayerName: "c1", OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, in)
	mp := g.Add(nn.NewMaxPool2D("mp", 3, 2, 1), c1)
	c2 := g.Add(&nn.Conv2D{LayerName: "c2", OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, mp)
	ap := g.Add(nn.NewAvgPool2D("ap", 2, 2, 0), c2)
	gp := g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, ap)
	g.Add(&nn.Dense{LayerName: "fc", Out: 10, Bias: true}, gp)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := Load(g, 1)
	checkSteadyStateAllocs(t, m, randInput(tensor.NewCHW(8, 32, 32), 3), 4<<10, 6)
}

// TestTailPassAllocs pins what a default server's tail group costs the
// heap: AlexNet's conv5/pool boundary of eight jobs through fc6–fc8 in
// one ExecuteBatch, the classes read, the sink recycled — the pass a
// server makes for every group, so anything it allocates is paid
// again each time groups get smaller and more frequent. It read 5 at
// n = 8 while ArgmaxBatch made a result slice and the Shape{·} that
// flatten and each of the three dense layers hand to Arena.Get went to
// the heap (Shape.Elems boxed it for a panic message); it reads 0.
func TestTailPassAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("loads AlexNet")
	}
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under -race (sync.Pool randomly drops Puts)")
	}
	g := models.MustBuild("alexnet")
	m := Load(g, 1)
	cut, _ := g.NodeByName("conv5/pool")
	done := g.Ancestors(cut.ID)
	var tail []int
	for _, id := range g.Topo() {
		if !done[id] {
			tail = append(tail, id)
		}
	}
	const n = 8
	seed := tensor.New(batchShape(cut.OutShape, n))
	copy(seed.Data, randInput(seed.Shape, 4).Data)
	acts := map[int]*tensor.Tensor{}
	pass := func() {
		acts[cut.ID] = seed
		if err := m.ExecuteBatch(acts, n, nil, tail); err != nil {
			t.Fatal(err)
		}
		out := acts[g.Sink()]
		for b := 0; b < n; b++ {
			_ = ArgmaxBatch(out, n, b)
		}
		out.Recycle()
		clear(acts)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pass() // warm the arena at this batch size
	if got := testing.AllocsPerRun(5, pass); got > 1 {
		t.Errorf("a warm tail pass at n = %d does %.1f allocs, want <= 1", n, got)
	}
}

// TestMiddlePassAllocs pins the pass a forwarding stage makes for a
// group of four: MobileNet-v2's (bneck15/add, head/gap] — the three 1×1
// convolutions on the 7×7 plane, the depthwise one, BN and ReLU6 — in one
// ExecuteBatch at n = 4, the output recycled. It read 4 while batchShape
// cloned the packed shape of each convolution onto the heap; it reads 0.
// Each member's slice of the output must also be bit for bit what the
// same segment gives that image alone: a stage's handoff tensor may not
// depend on whether it was grouped.
func TestMiddlePassAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("loads MobileNet-v2")
	}
	g := models.MustBuild("mobilenetv2")
	m := Load(g, 1)
	from, _ := g.NodeByName("bneck15/add")
	to, _ := g.NodeByName("head/gap")
	before, upTo := g.Ancestors(from.ID), g.Ancestors(to.ID)
	var segment []int
	for _, id := range g.Topo() {
		if upTo[id] && !before[id] {
			segment = append(segment, id)
		}
	}
	const n = 4
	seeds, solo := make([]*tensor.Tensor, n), make([]*tensor.Tensor, n)
	for b := range seeds {
		seeds[b] = randInput(from.OutShape, int64(11+b))
		acts := map[int]*tensor.Tensor{from.ID: seeds[b]}
		if err := m.Execute(acts, nil, segment); err != nil {
			t.Fatal(err)
		}
		solo[b] = acts[to.ID]
	}
	seed, err := PackBatch(seeds)
	if err != nil {
		t.Fatal(err)
	}
	acts := map[int]*tensor.Tensor{}
	pass := func() *tensor.Tensor {
		acts[from.ID] = seed
		if err := m.ExecuteBatch(acts, n, nil, segment); err != nil {
			t.Fatal(err)
		}
		out := acts[to.ID]
		clear(acts)
		return out
	}
	out := pass()
	members, err := UnpackBatch(out, n)
	if err != nil {
		t.Fatal(err)
	}
	out.Recycle()
	for b, got := range members {
		for i, v := range got.Data {
			if math.Float32bits(v) != math.Float32bits(solo[b].Data[i]) {
				t.Fatalf("member %d, element %d: %v in the group of %d, %v alone", b, i, v, n, solo[b].Data[i])
			}
		}
	}
	if raceEnabled {
		return // alloc counts are nondeterministic under -race (sync.Pool randomly drops Puts)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(5, func() { pass().Recycle() }); got != 0 {
		t.Errorf("a warm middle pass at n = %d does %.1f allocs, want 0", n, got)
	}
}

// checkSteadyStateAllocs warms the model's arena on input, then
// asserts per-Forward allocation bounds from the runtime's own
// counters over a fixed number of passes. The collector is held off
// for the whole window: a GC cycle empties the sync.Pools (the state
// and activation-map pools, the int8 pack buffers), and refilling them
// is not a per-layer allocation. The float32 pack blocks sit on a free
// list no GC or P migration empties, so they need no such care.
// (testing.Benchmark forces a GC before every run, which is why this
// does not use it.)
func checkSteadyStateAllocs(t *testing.T, m *Model, input *tensor.Tensor, maxBytes, maxAllocs int64) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under -race (sync.Pool randomly drops Puts)")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	forward := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := m.Forward(input); err != nil {
				t.Fatal(err)
			}
		}
	}
	forward(3) // warm the arena and the state pools
	const passes = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	forward(passes)
	runtime.ReadMemStats(&after)
	if got := int64(after.TotalAlloc-before.TotalAlloc) / passes; got > maxBytes {
		t.Errorf("steady-state Forward allocates %d B/op, want <= %d (arena not recycling?)", got, maxBytes)
	}
	// Allocation count must not scale with layer count: the sink tensor
	// handed to the caller plus at most a few arena misses.
	if got := int64(after.Mallocs-before.Mallocs) / passes; got > maxAllocs {
		t.Errorf("steady-state Forward does %d allocs/op, want <= %d", got, maxAllocs)
	}
}
