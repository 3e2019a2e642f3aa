// Package profile turns a DNN graph into the latency curves the
// planner consumes: the cumulative mobile computation f(l) and the
// offload communication time g(l) for every candidate cut-point l
// (§3.1 of the paper). It plays the role of the paper's PyTorch
// Profiler lookup table plus the linear regression communication
// model, replacing the Raspberry Pi / GPU testbed with parametric
// device cost models (see DESIGN.md, substitutions).
package profile

import (
	"fmt"

	"dnnjps/internal/dag"
	"dnnjps/internal/nn"
)

// Device is a per-layer-kind cost model: effective throughput in
// FLOPs per millisecond plus a fixed per-layer dispatch overhead.
// Effective throughput differs by kind because convolutions are
// compute-bound while depthwise/dense layers are memory-bound.
type Device struct {
	Name string
	// ThroughputFperMs maps a layer kind to effective FLOPs/ms.
	ThroughputFperMs map[nn.Kind]float64
	// DefaultFperMs is used for kinds not present in the map.
	DefaultFperMs float64
	// LayerOverheadMs is the fixed dispatch cost per layer (framework
	// overhead on the mobile CPU, kernel-launch latency on the GPU).
	LayerOverheadMs float64
}

// LayerTimeMs returns the modeled execution time of node id on the
// device.
func (d Device) LayerTimeMs(g *dag.Graph, id int) float64 {
	flops := g.NodeFLOPs(id)
	if flops == 0 {
		// Free layers (input, flatten, dropout) do not pay dispatch
		// overhead either: frameworks fold them away.
		return 0
	}
	tp := d.DefaultFperMs
	if v, ok := d.ThroughputFperMs[g.Node(id).Layer.Kind()]; ok {
		tp = v
	}
	if tp <= 0 {
		panic(fmt.Sprintf("profile: device %s has non-positive throughput for %v",
			d.Name, g.Node(id).Layer.Kind()))
	}
	return d.LayerOverheadMs + flops/tp
}

// NodesTimeMs sums LayerTimeMs over a set of node IDs.
func (d Device) NodesTimeMs(g *dag.Graph, ids []int) float64 {
	var sum float64
	for _, id := range ids {
		sum += d.LayerTimeMs(g, id)
	}
	return sum
}

// TotalTimeMs is the device time for the whole graph.
func (d Device) TotalTimeMs(g *dag.Graph) float64 {
	return d.NodesTimeMs(g, g.Topo())
}

// RaspberryPi4 models the paper's mobile device (quad-core Cortex-A72,
// 4 GB RAM) running an eager-mode PyTorch client: roughly one
// effective GFLOPS on convolutions and markedly less on memory-bound
// dense and depthwise layers — PyTorch on the Pi leaves most of the
// silicon idle. Calibrated so local inference lands on the paper's
// Fig. 12/13 scale (AlexNet ≈ 1.4 s, ResNet-18 ≈ 3 s locally).
func RaspberryPi4() Device {
	return Device{
		Name: "raspberrypi4",
		ThroughputFperMs: map[nn.Kind]float64{
			nn.KindConv:          1.2e6,
			nn.KindDepthwiseConv: 0.2e6,
			nn.KindDense:         0.5e6,
			nn.KindMaxPool:       0.5e6,
			nn.KindAvgPool:       0.5e6,
			nn.KindGlobalAvgPool: 0.5e6,
			nn.KindActivation:    4.0e6,
			nn.KindBatchNorm:     1.6e6,
			nn.KindLRN:           0.5e6,
			nn.KindConcat:        2.0e6,
			nn.KindAdd:           2.0e6,
			nn.KindSoftmax:       1.0e6,
		},
		DefaultFperMs:   1.0e6,
		LayerOverheadMs: 0.3,
	}
}

// CloudGPU models the paper's server (i7-8700 + GTX 1080): two to
// three orders of magnitude faster per layer, with a small kernel
// launch overhead. Its whole-model times are a few milliseconds —
// "negligible" in the paper's two-stage formulation, but still modeled
// so the simulator can verify that claim.
func CloudGPU() Device {
	return Device{
		Name: "cloudgpu",
		ThroughputFperMs: map[nn.Kind]float64{
			nn.KindConv:          900e6,
			nn.KindDepthwiseConv: 120e6,
			nn.KindDense:         350e6,
			nn.KindMaxPool:       250e6,
			nn.KindAvgPool:       250e6,
			nn.KindGlobalAvgPool: 250e6,
			nn.KindActivation:    2000e6,
			nn.KindBatchNorm:     900e6,
			nn.KindLRN:           250e6,
			nn.KindConcat:        1200e6,
			nn.KindAdd:           1200e6,
			nn.KindSoftmax:       500e6,
		},
		DefaultFperMs:   500e6,
		LayerOverheadMs: 0.05,
	}
}

// Quantized models the device running the int8 inference path: the
// heavy layers speed up by documented per-kind factors, everything
// else is unchanged (the runtime keeps activations, pooling, and
// residual arithmetic in float32 between quantized layers).
//
// Since the VPMADDWD assembly tile landed, the factors are grounded in
// this repo's own measured int8/f32 kernel ratios on the AVX2
// reference host (BenchmarkQgemmCrossover vs BenchmarkSgemmCrossover,
// BenchmarkDense_4096x4096, BenchmarkForward quant legs; see
// EXPERIMENTS.md):
//
//   - conv ≈ 1.6x — compute-bound; the int8 tile retires two
//     multiply-adds per lane pair against FMA's one (34 vs 26-29
//     MAC/ns measured), plus halved B-panel packing traffic, minus the
//     requantize/quantize epilogues.
//   - dense ≈ 4x — memory-bound on streamed weights, so the speedup
//     tracks bytes, not MACs: int8 weights are a quarter of the
//     traffic. (BenchmarkDense_4096x4096 on a 2-vCPU AVX-512 Xeon,
//     where a float32 dense layer rides the asm tile, reads ≈ 4.6x:
//     3.2 ms float32 against 0.71 ms int8, medians of five.)
//   - depthwise ≈ 1.1x — no int8 SIMD depthwise kernel here, and the
//     arithmetic intensity is too low for the pack-traffic win to
//     matter: scalar int8 with the hoisted zero-point correction is
//     roughly at parity with the f32 plane loop, so only sdot-class
//     hardware keeps a modest edge.
func (d Device) Quantized() Device {
	factor := map[nn.Kind]float64{
		nn.KindConv:          1.6,
		nn.KindDense:         4.0,
		nn.KindDepthwiseConv: 1.1,
	}
	out := Device{
		Name:             d.Name + "_int8",
		ThroughputFperMs: make(map[nn.Kind]float64, len(d.ThroughputFperMs)),
		DefaultFperMs:    d.DefaultFperMs,
		LayerOverheadMs:  d.LayerOverheadMs,
	}
	for k, v := range d.ThroughputFperMs {
		if f, ok := factor[k]; ok {
			v *= f
		}
		out.ThroughputFperMs[k] = v
	}
	return out
}

// Scaled returns a copy of the device with all throughputs multiplied
// by factor — used by ablations that sweep the mobile/cloud speed gap.
func (d Device) Scaled(factor float64) Device {
	if factor <= 0 {
		panic("profile: non-positive scale factor")
	}
	out := Device{
		Name:             fmt.Sprintf("%s_x%g", d.Name, factor),
		ThroughputFperMs: make(map[nn.Kind]float64, len(d.ThroughputFperMs)),
		DefaultFperMs:    d.DefaultFperMs * factor,
		LayerOverheadMs:  d.LayerOverheadMs,
	}
	for k, v := range d.ThroughputFperMs {
		out.ThroughputFperMs[k] = v * factor
	}
	return out
}
