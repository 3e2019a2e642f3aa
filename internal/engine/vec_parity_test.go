package engine

import (
	"fmt"
	"math"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// The float32 vector kernels outside the GEMM — the elementwise spans
// (span_avx2_amd64.s) and the 3×3 depthwise (dwconv_avx2_amd64.s) — are
// not tolerance cases: they round exactly like the scalar loops, so
// everything here compares bit patterns. With the kernels off (noasm,
// DNNJPS_NOASM, or any GOARCH but amd64 — none has vector kernels) the
// same tests pin the Go loops against their written-out definitions.

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// assertSameBits is stricter than assertSliceParity's exact mode, which
// compares with != and so cannot tell -0 from +0 or NaN from NaN.
func assertSameBits(t *testing.T, ctx string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %g (%#08x), want %g (%#08x)", ctx, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// spanEdgeValues straddle every branch of the clamps: the signed zeros,
// the neighbours of 0 and 6, denormals, infinities and NaN.
func spanEdgeValues() []float32 {
	negZero := float32(math.Copysign(0, -1))
	return []float32{
		0, negZero, 6, -6,
		math.Nextafter32(0, 1), math.Nextafter32(0, -1), // smallest denormals
		math.Nextafter32(6, 7), math.Nextafter32(6, 5),
		1e-39, -1e-39, // denormal
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		0.5, -0.5, 3, 5.9999995, 6.0000005, 7, -7, 1e30, -1e30,
	}
}

// TestSpanKernelsMatchGoLoops: every span kernel equals the loop it
// replaced, at lengths 0–33 (no vector, exactly one, ragged tails), at
// every offset within a vector (the loads are unaligned), in place and
// out of place.
func TestSpanKernelsMatchGoLoops(t *testing.T) {
	edge := spanEdgeValues()
	negZero := edge[1]
	affines := []struct{ scale, shift float32 }{
		{1.0625, -0.03125}, {-0.9, 0.05}, {1, 0}, {1, negZero}, {0, negZero}, {3, 6}, {1e-30, 0},
	}
	acts := map[spanAct]func(float32) float32{
		spanNoAct: func(v float32) float32 { return v },
		spanReLU: func(v float32) float32 {
			if v > 0 {
				return v
			}
			return 0
		},
		spanReLU6: func(v float32) float32 {
			switch {
			case v <= 0:
				return 0
			case v >= 6:
				return 6
			default:
				return v
			}
		},
	}
	check := func(ctx string, got, want []float32) {
		t.Helper()
		assertSameBits(t, ctx, got, want)
	}
	for n := 0; n <= 33; n++ {
		for off := 0; off < 8; off++ {
			buf := make([]float32, off+n)
			other := make([]float32, off+n)
			for i := range buf {
				buf[i] = edge[(i*7+n+off)%len(edge)]
				other[i] = edge[(i*5+3*n)%len(edge)]
			}
			src, addend := buf[off:], other[off:]
			for _, inPlace := range []bool{false, true} {
				run := func(kernel func(dst, src []float32)) []float32 {
					in := append([]float32(nil), src...)
					if inPlace {
						kernel(in, in)
						return in
					}
					// Guard cells either side catch a store outside the span.
					dst := make([]float32, n+2)
					dst[0], dst[n+1] = 42, 42
					kernel(dst[1:n+1], in)
					if dst[0] != 42 || dst[n+1] != 42 {
						t.Fatalf("n=%d off=%d: kernel wrote outside its span", n, off)
					}
					check("source mutated by an out-of-place kernel", in, src)
					return dst[1 : n+1]
				}
				for act, fn := range acts {
					ctx := fmt.Sprintf("n=%d off=%d inPlace=%v act=%d", n, off, inPlace, act)
					for _, af := range affines {
						want := make([]float32, n)
						for i, v := range src {
							want[i] = fn(v*af.scale + af.shift)
						}
						got := run(func(dst, s []float32) { affineSpan(dst, s, af.scale, af.shift, act) })
						check(fmt.Sprintf("affineSpan %s scale=%g shift=%g", ctx, af.scale, af.shift), got, want)
					}
					if act == spanNoAct {
						continue
					}
					want := make([]float32, n)
					for i, v := range src {
						want[i] = fn(v)
					}
					check("actSpan "+ctx, run(func(dst, s []float32) { actSpan(dst, s, act) }), want)
				}
			}
			// addSpan accumulates: dst is both operand and result.
			want := make([]float32, n)
			for i := range want {
				want[i] = src[i] + addend[i]
			}
			got := append([]float32(nil), src...)
			addSpan(got, addend)
			check(fmt.Sprintf("addSpan n=%d off=%d", n, off), got, want)
		}
	}

	// General operands. The edge values mostly multiply exactly, so a
	// build whose compiler contracts v*scale+shift into one FMA in the Go
	// loops (the spec allows it; as of go1.24 the amd64 compiler does it
	// at no GOAMD64 level, and the ports that do have no vector form to
	// disagree with) would pass everything above. A fused and an unfused
	// multiply-add of random operands differ about one time in three:
	// here the vector head, which rounds twice, would leave both the
	// written-out definition and its own scalar tail.
	src := randInput(tensor.NewVec(8*5+7), 33).Data
	for _, af := range []struct{ scale, shift float32 }{{1.0371, -0.2113}, {-0.7219, 2.9043}} {
		want := make([]float32, len(src))
		tells := false
		for i, v := range src {
			want[i] = relu6(float32(v*af.scale) + af.shift)
			// The product is exact in float64: one rounding, as an FMA.
			fused := float32(float64(v)*float64(af.scale) + float64(af.shift))
			tells = tells || relu6(fused) != want[i]
		}
		if !tells {
			t.Fatal("operands cannot tell a fused multiply-add from an unfused one")
		}
		got := make([]float32, len(src))
		affineSpan(got, src, af.scale, af.shift, spanReLU6)
		check(fmt.Sprintf("affineSpan random operands scale=%g shift=%g", af.scale, af.shift), got, want)
	}
}

// dwVecCase is one depthwise geometry for TestDepthwiseVecMatchesDirect.
type dwVecCase struct {
	c, h, w, k, stride, pad int
	bias                    bool
}

// TestDepthwiseVecMatchesDirect: dwconv2d equals dwconv2dDirect bit for
// bit on every depthwise layer shape of MobileNet-v2 (strides 1 and 2,
// 112² down to 7²), on planes narrower than, equal to and just past one
// vector, on geometries the vector kernel must leave to the scalar
// split, and on the C·n planes of packed batches — at several worker
// counts, so plane ranges start mid-channel.
func TestDepthwiseVecMatchesDirect(t *testing.T) {
	var cases []dwVecCase
	seen := map[dwVecCase]bool{}
	g := models.MustBuild("mobilenetv2")
	for _, id := range g.Topo() {
		l, ok := g.Node(id).Layer.(*nn.DepthwiseConv2D)
		if !ok {
			continue
		}
		in := g.InputShapes(id)[0]
		c := dwVecCase{in.C(), in.H(), in.W(), l.KH, l.Stride, l.Pad, l.Bias}
		if !seen[c] {
			seen[c] = true
			cases = append(cases, c)
		}
	}
	if len(cases) < 8 {
		t.Fatalf("mobilenetv2 yielded only %d distinct depthwise shapes", len(cases))
	}
	for _, w := range []int{1, 7, 8, 9, 15} {
		for _, stride := range []int{1, 2} {
			cases = append(cases,
				dwVecCase{3, w + 2, w, 3, stride, 1, true},
				dwVecCase{2, 5, w, 3, stride, 1, false})
		}
	}
	cases = append(cases,
		dwVecCase{3, 7, 7, 7, 1, 3, false},   // 7×7 kernel: all border, scalar split
		dwVecCase{5, 12, 12, 3, 3, 0, false}, // stride 3, no pad: scalar split
		dwVecCase{4, 9, 9, 3, 1, 1, true},    // bias
		dwVecCase{2, 9, 11, 3, 1, 0, true},   // 3×3 without padding
		dwVecCase{2, 10, 13, 3, 2, 2, false}, // padding wider than the kernel needs
		dwVecCase{2, 3, 3, 3, 2, 1, true},    // 2×2 output
	)
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("c%d_%dx%d_k%d_s%d_p%d", c.c, c.h, c.w, c.k, c.stride, c.pad), func(t *testing.T) {
			outH := (c.h+2*c.pad-c.k)/c.stride + 1
			outW := (c.w+2*c.pad-c.k)/c.stride + 1
			outShape := tensor.NewCHW(c.c, outH, outW)
			p := params{w: initSlice(3, "dw/w", c.c*c.k*c.k, c.k*c.k)}
			if c.bias {
				p.b = initSlice(3, "dw/b", c.c, c.k*c.k)
			}
			arena := tensor.NewArena()
			ns := []int{1, 2, 3}
			if c.c*c.h*c.w > 1<<17 {
				ns = []int{1} // the 112² and 56² layers: batches add nothing but time
			}
			for _, n := range ns {
				inputs := make([]*tensor.Tensor, n)
				for b := range inputs {
					inputs[b] = randInput(tensor.NewCHW(c.c, c.h, c.w), int64(17*n+b))
					// Exact zeros, as after a ReLU6: in-bounds ±0 products.
					for i := 0; i < len(inputs[b].Data); i += 5 {
						inputs[b].Data[i] = 0
					}
				}
				packed, err := PackBatch(inputs)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 3} {
					got, err := UnpackBatch(dwconv2d(arena, packed, outShape, p, c.k, c.k, c.stride, c.pad, workers, n), n)
					if err != nil {
						t.Fatal(err)
					}
					for b, in := range inputs {
						want := dwconv2dDirect(nil, in, outShape, p, c.k, c.k, c.stride, c.pad, 1)
						assertSameBits(t, fmt.Sprintf("n=%d workers=%d image %d vs direct", n, workers, b),
							got[b].Data, want.Data)
					}
				}
			}
		})
	}
}

// bnGraph builds in → conv → bn → relu6 → gap; with fork the BatchNorm
// also feeds an Add beside its activation (two consumers).
func bnGraph(t *testing.T, fork bool) *dag.Graph {
	t.Helper()
	g := dag.New("bnfuse")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(3, 9, 9)})
	conv := g.Add(&nn.Conv2D{LayerName: "conv", OutC: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}, in)
	bn := g.Add(nn.NewBatchNorm("bn"), conv)
	tip := g.Add(nn.NewActivation("relu6", nn.ReLU6), bn)
	if fork {
		tip = g.Add(&nn.Add{LayerName: "add"}, bn, tip)
	}
	g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, tip)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// nodeByNode executes one node per Execute call: every activation is
// the last of its list, so nothing is overwritten and nothing is fused
// — the values each node has on its own.
func nodeByNode(t *testing.T, m *Model, in *tensor.Tensor) map[int]*tensor.Tensor {
	t.Helper()
	acts := map[int]*tensor.Tensor{}
	for _, id := range m.g.Topo() {
		if err := m.Execute(acts, in, []int{id}); err != nil {
			t.Fatal(err)
		}
	}
	return acts
}

// TestBatchNormFusionRespectsBoundaries: a BatchNorm overwrites its
// input and takes on the following clamp only when nothing can see the
// difference. A BN that ends the node list (a cut boundary: its
// consumer runs elsewhere) returns its own, un-clamped values and
// leaves a caller-provided conv output alone; a BN with two consumers
// is not fused either; and where the fusion does happen (the plain
// chain) the results equal the unfused ones bit for bit.
func TestBatchNormFusionRespectsBoundaries(t *testing.T) {
	for _, fork := range []bool{false, true} {
		g := bnGraph(t, fork)
		m := Load(g, 4)
		in := randInput(g.Node(g.Source()).OutShape, 21)
		ref := nodeByNode(t, m, in)
		conv, _ := g.NodeByName("conv")
		bn, _ := g.NodeByName("bn")

		// The reference BN must be the definition, not just self-consistent.
		p := m.params[bn.ID]
		plane := 9 * 9
		clamped := false
		for i, v := range ref[conv.ID].Data {
			want := v*p.w[i/plane] + p.b[i/plane]
			if !sameBits(ref[bn.ID].Data[i], want) {
				t.Fatalf("fork=%v: bn[%d] = %g, want %g", fork, i, ref[bn.ID].Data[i], want)
			}
			clamped = clamped || want < 0
		}
		if !clamped {
			t.Fatal("test data never goes negative: a fused clamp would be invisible")
		}

		// Whole forward: in-place and (on the chain) fused.
		out, err := m.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, fmt.Sprintf("fork=%v forward vs node-by-node", fork), out.Data, ref[g.Sink()].Data)

		// The list ends at the BN: its consumer is outside — a cut.
		topo := g.Topo()
		var prefix []int
		for _, id := range topo {
			prefix = append(prefix, id)
			if id == bn.ID {
				break
			}
		}
		acts := map[int]*tensor.Tensor{}
		if err := m.Execute(acts, in, prefix); err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, fmt.Sprintf("fork=%v boundary bn", fork), acts[bn.ID].Data, ref[bn.ID].Data)

		// Resume from a caller-provided conv output, BN and activation
		// in one list: the BN may fuse, but not into the caller's buffer.
		convOut := ref[conv.ID].Clone()
		acts = map[int]*tensor.Tensor{conv.ID: convOut}
		var suffix []int
		for i, id := range topo {
			if id == bn.ID {
				suffix = topo[i:]
			}
		}
		if err := m.Execute(acts, nil, suffix); err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, fmt.Sprintf("fork=%v caller-provided conv output", fork), convOut.Data, ref[conv.ID].Data)
		assertSameBits(t, fmt.Sprintf("fork=%v resumed suffix", fork), acts[g.Sink()].Data, ref[g.Sink()].Data)

		// And the BN alone, from the caller's tensor.
		acts = map[int]*tensor.Tensor{conv.ID: convOut}
		if err := m.Execute(acts, nil, []int{bn.ID}); err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, fmt.Sprintf("fork=%v lone bn", fork), acts[bn.ID].Data, ref[bn.ID].Data)
		assertSameBits(t, fmt.Sprintf("fork=%v conv output after lone bn", fork), convOut.Data, ref[conv.ID].Data)
	}
}
