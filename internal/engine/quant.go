package engine

import (
	"fmt"
	"math"

	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// Post-training static quantization of the heavy layers (§ int8 path).
//
// The scheme is the standard mobile-runtime one: activations carry one
// asymmetric int8 mapping per graph edge, calibrated from float32
// forward passes; conv/dense weights are quantized symmetrically with
// one scale per output channel (BatchNorm scale/shift folded into the
// producing convolution first, so its per-channel gain doesn't eat the
// shared weight scale). The integer kernels accumulate in int32 and a
// float32 epilogue requantizes:
//
//	out[oc][j] = (acc[oc][j] − zₓ·Σₖqw[oc][k]) · sₓ·s_w[oc] + bias[oc]
//
// where (sₓ, zₓ) is the input edge's affine mapping. The zero-point
// correction term uses the precomputed per-channel weight-code sums, so
// the inner loops multiply raw codes with no per-element offset. Layers
// between quantized ones (activations, pooling, residual adds) run in
// float32 exactly as before.
//
// Calibration is deterministic in the model seed: CalibrateSynthetic
// draws its sample inputs from the same seeded generator on every
// process, so a client and a server that Load the same (model, seed)
// derive bit-identical QParams and quantized weights without shipping
// either — the same trust model the float32 weights already use.

// Calibration holds the observed activation ranges of one model: the
// affine int8 mapping of every node's output tensor.
type Calibration struct {
	Ranges map[int]tensor.QParams
}

// Calibrate runs float32 forward passes over the inputs and records
// each node's output range. The model must not be quantized yet.
func (m *Model) Calibrate(inputs []*tensor.Tensor) (*Calibration, error) {
	if m.quant != nil {
		return nil, fmt.Errorf("engine: model is already quantized")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("engine: calibration needs at least one input")
	}
	n := m.g.Len()
	lo := make([]float32, n)
	hi := make([]float32, n)
	for i := range lo {
		lo[i] = float32(math.Inf(1))
		hi[i] = float32(math.Inf(-1))
	}
	topo := m.g.Topo()
	node := []int{0}
	for _, in := range inputs {
		// One node per Execute: a node's consumers are never in its own
		// list, so every activation survives until it has been observed.
		acts := make(map[int]*tensor.Tensor, n)
		for _, id := range topo {
			node[0] = id
			if err := m.Execute(acts, in, node); err != nil {
				return nil, err
			}
			for _, v := range acts[id].Data {
				if v < lo[id] {
					lo[id] = v
				}
				if v > hi[id] {
					hi[id] = v
				}
			}
		}
	}
	cal := &Calibration{Ranges: make(map[int]tensor.QParams, n)}
	for id := 0; id < n; id++ {
		cal.Ranges[id] = tensor.ChooseQParams(lo[id], hi[id])
	}
	return cal, nil
}

// CalibrateSynthetic calibrates on `samples` standard-normal inputs
// drawn deterministically from the model seed. Two processes holding
// the same (graph, seed) derive identical calibrations — the property
// the runtime's quantized wire mode relies on.
func (m *Model) CalibrateSynthetic(samples int) (*Calibration, error) {
	shape := m.g.Node(m.g.Source()).OutShape
	inputs := make([]*tensor.Tensor, samples)
	for i := range inputs {
		rng := rngFor(m.seed, fmt.Sprintf("calib/%d", i))
		t := tensor.New(shape)
		for j := range t.Data {
			t.Data[j] = float32(rng.NormFloat64())
		}
		inputs[i] = t
	}
	return m.Calibrate(inputs)
}

// qlayer is one quantized conv/dense layer: int8 weight codes, the
// per-output-channel scales, the per-channel code sums for the
// zero-point correction, and the float32 bias (BatchNorm shift folded
// in when applicable).
type qlayer struct {
	qw     []int8
	ws     []float32
	rowSum []int32
	bias   []float32
}

// quantState is a Model's quantized mode: per-layer integer weights
// plus the calibrated activation mappings.
type quantState struct {
	act    map[int]tensor.QParams
	layers map[int]*qlayer
	folded map[int]bool // BatchNorm nodes absorbed into their producer
}

// Quantize switches the model into int8 inference mode using the given
// calibration. Conv, depthwise-conv and dense layers run on the integer
// kernels from here on; everything else stays float32. Returns the
// model for chaining.
func (m *Model) Quantize(cal *Calibration) (*Model, error) {
	q := &quantState{
		act:    cal.Ranges,
		layers: make(map[int]*qlayer),
		folded: make(map[int]bool),
	}
	for _, id := range m.g.Topo() {
		node := m.g.Node(id)
		switch l := node.Layer.(type) {
		case *nn.Conv2D:
			ins := m.g.InputShapes(id)
			inC := ins[0].C() / max(l.Groups, 1)
			q.layers[id] = m.quantizeLayer(id, l.OutC, l.KH*l.KW*inC, q)
		case *nn.DepthwiseConv2D:
			ins := m.g.InputShapes(id)
			q.layers[id] = m.quantizeLayer(id, ins[0].C(), l.KH*l.KW, q)
		case *nn.Dense:
			ins := m.g.InputShapes(id)
			q.layers[id] = m.quantizeLayer(id, l.Out, ins[0].Elems(), q)
		}
	}
	m.quant = q
	return m, nil
}

// bnSuccessor returns the BatchNorm node folding candidate: the sole
// consumer of id, when that consumer is a BatchNorm.
func (m *Model) bnSuccessor(id int) (int, bool) {
	succs := m.g.Succs(id)
	if len(succs) != 1 {
		return 0, false
	}
	if _, ok := m.g.Node(succs[0]).Layer.(*nn.BatchNorm); !ok {
		return 0, false
	}
	return succs[0], true
}

// quantizeLayer folds any directly following BatchNorm into the
// layer's weights, then quantizes row-wise: outC rows of fanIn weights,
// one symmetric scale per row.
func (m *Model) quantizeLayer(id, outC, fanIn int, q *quantState) *qlayer {
	p := m.params[id]
	gain := make([]float32, outC)
	bias := make([]float32, outC)
	for oc := range gain {
		gain[oc] = 1
	}
	if p.b != nil {
		copy(bias, p.b)
	}
	if bn, ok := m.bnSuccessor(id); ok {
		bp := m.params[bn]
		for oc := 0; oc < outC; oc++ {
			gain[oc] = bp.w[oc]
			bias[oc] = bias[oc]*bp.w[oc] + bp.b[oc]
		}
		q.folded[bn] = true
	}
	ql := &qlayer{
		qw:     make([]int8, outC*fanIn),
		ws:     make([]float32, outC),
		rowSum: make([]int32, outC),
		bias:   bias,
	}
	for oc := 0; oc < outC; oc++ {
		row := p.w[oc*fanIn : (oc+1)*fanIn]
		var maxAbs float64
		for _, w := range row {
			if a := math.Abs(float64(w) * float64(gain[oc])); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			ql.ws[oc] = 1
			continue
		}
		scale := maxAbs / 127
		ql.ws[oc] = float32(scale)
		var sum int32
		for k, w := range row {
			code := math.Round(float64(w) * float64(gain[oc]) / scale)
			if code > 127 {
				code = 127
			}
			if code < -127 {
				code = -127
			}
			c := int8(code)
			ql.qw[oc*fanIn+k] = c
			sum += int32(c)
		}
		ql.rowSum[oc] = sum
	}
	return ql
}

// IsQuantized reports whether the model runs the int8 path.
func (m *Model) IsQuantized() bool { return m.quant != nil }

// ActivationQParams returns the calibrated affine mapping of node id's
// output — the mapping a quantized boundary tensor ships with.
func (m *Model) ActivationQParams(id int) (tensor.QParams, error) {
	if m.quant == nil {
		return tensor.QParams{}, fmt.Errorf("engine: model is not quantized")
	}
	qp, ok := m.quant.act[id]
	if !ok {
		return tensor.QParams{}, fmt.Errorf("engine: no calibrated range for node %d", id)
	}
	return qp, nil
}

// qconv2d is the quantized grouped convolution: int8 im2col, integer
// GEMM, requantize epilogue.
func (m *Model) qconv2d(id int, l *nn.Conv2D, in *tensor.Tensor, pred int, outShape tensor.Shape) *tensor.Tensor {
	q := m.quant
	ql := q.layers[id]
	qp := q.act[pred]
	groups := max(l.Groups, 1)

	out := m.arena.Get(outShape)
	inC, inH, inW := in.Shape.C(), in.Shape.H(), in.Shape.W()
	outC, outH, outW := outShape.C(), outShape.H(), outShape.W()
	icpg := inC / groups
	ocpg := outC / groups
	kSize := l.KH * l.KW * icpg
	hw := outH * outW
	padH, padW := l.EffPadH(), l.EffPadW()

	qin := m.arena.GetSliceI8(len(in.Data))
	defer m.arena.PutSliceI8(qin)
	quantizeAct(qin, in.Data, qp, m.workers)

	pure1x1 := l.KH == 1 && l.KW == 1 && l.Stride == 1 && padH == 0 && padW == 0
	var scratch []int8
	if !pure1x1 {
		scratch = m.arena.GetSliceI8(kSize * hw)
		defer m.arena.PutSliceI8(scratch)
	}
	acc := m.arena.GetSliceI32(ocpg * hw)
	defer m.arena.PutSliceI32(acc)

	for g := 0; g < groups; g++ {
		b := scratch
		if pure1x1 {
			b = qin[g*icpg*inH*inW : (g+1)*icpg*inH*inW]
		} else {
			im2colTile(qin, scratch, int8(qp.Zero), g*icpg, icpg, inH, inW, l.KH, l.KW, l.Stride, padH, padW, outH, outW, m.workers, 1, 0, 1)
		}
		a := ql.qw[g*ocpg*kSize : (g+1)*ocpg*kSize]
		qgemmAcc(ocpg, kSize, hw, a, b, acc, m.workers)
		for oc := 0; oc < ocpg; oc++ {
			requantizeRow(out.Data[(g*ocpg+oc)*hw:(g*ocpg+oc+1)*hw], acc[oc*hw:(oc+1)*hw],
				qp.Zero*ql.rowSum[g*ocpg+oc], qp.Scale*ql.ws[g*ocpg+oc], ql.bias[g*ocpg+oc])
		}
	}
	return out
}

// qdwconv2d is the quantized depthwise convolution: per-channel direct
// loops with the zero-point subtracted per tap (border taps outside the
// input contribute exactly zero, matching the float32 skip semantics).
func (m *Model) qdwconv2d(id int, l *nn.DepthwiseConv2D, in *tensor.Tensor, pred int, outShape tensor.Shape) *tensor.Tensor {
	q := m.quant
	ql := q.layers[id]
	qp := q.act[pred]

	out := m.arena.Get(outShape)
	inH, inW := in.Shape.H(), in.Shape.W()
	outC, outH, outW := outShape.C(), outShape.H(), outShape.W()

	qin := m.arena.GetSliceI8(len(in.Data))
	defer m.arena.PutSliceI8(qin)
	quantizeAct(qin, in.Data, qp, m.workers)

	kh, kw, stride, pad := l.KH, l.KW, l.Stride, l.Pad
	zx := qp.Zero
	if serialSpan(m.workers, outC) {
		qdwChannels(0, outC, qin, out.Data, ql, qp, zx, kh, kw, stride, pad, inH, inW, outH, outW)
		return out
	}
	parallelFor(m.workers, outC, func(lo, hi int) {
		qdwChannels(lo, hi, qin, out.Data, ql, qp, zx, kh, kw, stride, pad, inH, inW, outH, outW)
	})
	return out
}

// qdwChannels convolves depthwise channels [lo, hi) of the quantized
// input into dst, requantizing each element as it is produced.
//
// Interior positions — where every tap lands inside the input — run a
// branch-free loop with the zero-point hoisted out: since all taps are
// live there, Σ k·(x−zx) = Σ k·x − zx·Σk exactly in int32 (|acc| stays
// far below overflow for int8 codes), so the inner loop is pure
// multiply-adds and the correction folds into one subtract per output.
// Border positions keep the per-tap skip loop, which is what defines
// padding semantics. The 3x3 interior — every depthwise layer in
// mobilenetv2 — is fully unrolled; this kernel dominates the quantized
// forward of depthwise-separable models (it has no GEMM shape the
// VPMADDWD tile could take over).
func qdwChannels(lo, hi int, qin []int8, dst []float32, ql *qlayer, qp tensor.QParams, zx int32,
	kh, kw, stride, pad, inH, inW, outH, outW int) {
	// Interior output range: oh*stride-pad+r in [0, inH) for every r.
	ohLo, ohHi := interiorRange(inH, kh, stride, pad, outH)
	owLo, owHi := interiorRange(inW, kw, stride, pad, outW)
	for c := lo; c < hi; c++ {
		src := qin[c*inH*inW:]
		out := dst[c*outH*outW:]
		krn := ql.qw[c*kh*kw : c*kh*kw+kh*kw]
		mul := qp.Scale * ql.ws[c]
		bias := ql.bias[c]
		var ksum int32
		for _, k := range krn {
			ksum += int32(k)
		}
		zcorr := zx * ksum
		for oh := ohLo; oh < ohHi; oh++ {
			ihBase := oh*stride - pad
			orow := out[oh*outW:]
			if kh == 3 && kw == 3 {
				r0 := src[ihBase*inW:]
				r1 := src[(ihBase+1)*inW:]
				r2 := src[(ihBase+2)*inW:]
				k0, k1, k2 := int32(krn[0]), int32(krn[1]), int32(krn[2])
				k3, k4, k5 := int32(krn[3]), int32(krn[4]), int32(krn[5])
				k6, k7, k8 := int32(krn[6]), int32(krn[7]), int32(krn[8])
				for ow := owLo; ow < owHi; ow++ {
					iw := ow*stride - pad
					acc := k0*int32(r0[iw]) + k1*int32(r0[iw+1]) + k2*int32(r0[iw+2]) +
						k3*int32(r1[iw]) + k4*int32(r1[iw+1]) + k5*int32(r1[iw+2]) +
						k6*int32(r2[iw]) + k7*int32(r2[iw+1]) + k8*int32(r2[iw+2])
					orow[ow] = float32(acc-zcorr)*mul + bias
				}
			} else {
				for ow := owLo; ow < owHi; ow++ {
					iwBase := ow*stride - pad
					var acc int32
					for r := 0; r < kh; r++ {
						row := src[(ihBase+r)*inW+iwBase:]
						kr := krn[r*kw:]
						for s := 0; s < kw; s++ {
							acc += int32(kr[s]) * int32(row[s])
						}
					}
					orow[ow] = float32(acc-zcorr)*mul + bias
				}
			}
		}
		// Border: original skip loop over everything outside the
		// interior rectangle.
		for oh := 0; oh < outH; oh++ {
			owS, owE := 0, outW
			if oh >= ohLo && oh < ohHi {
				if owLo >= owHi {
					owS, owE = 0, outW
				} else {
					qdwBorderRow(out, src, krn, mul, bias, zx, oh, 0, owLo, kh, kw, stride, pad, inH, inW, outW)
					qdwBorderRow(out, src, krn, mul, bias, zx, oh, owHi, outW, kh, kw, stride, pad, inH, inW, outW)
					continue
				}
			}
			qdwBorderRow(out, src, krn, mul, bias, zx, oh, owS, owE, kh, kw, stride, pad, inH, inW, outW)
		}
	}
}

// qdwBorderRow computes output columns [owS, owE) of row oh with the
// tap-skipping loop (out-of-bounds taps contribute exactly zero).
func qdwBorderRow(out []float32, src []int8, krn []int8, mul, bias float32, zx int32,
	oh, owS, owE, kh, kw, stride, pad, inH, inW, outW int) {
	for ow := owS; ow < owE; ow++ {
		var acc int32
		for r := 0; r < kh; r++ {
			ih := oh*stride - pad + r
			if ih < 0 || ih >= inH {
				continue
			}
			for s := 0; s < kw; s++ {
				iw := ow*stride - pad + s
				if iw < 0 || iw >= inW {
					continue
				}
				acc += int32(krn[r*kw+s]) * (int32(src[ih*inW+iw]) - zx)
			}
		}
		out[oh*outW+ow] = float32(acc)*mul + bias
	}
}

// qdense is the quantized fully connected layer.
func (m *Model) qdense(id int, l *nn.Dense, in *tensor.Tensor, pred int) *tensor.Tensor {
	q := m.quant
	ql := q.layers[id]
	qp := q.act[pred]
	inF := len(in.Data)

	out := m.arena.Get(tensor.NewVec(l.Out))
	qin := m.arena.GetSliceI8(inF)
	defer m.arena.PutSliceI8(qin)
	quantizeAct(qin, in.Data, qp, m.workers)
	acc := m.arena.GetSliceI32(l.Out)
	defer m.arena.PutSliceI32(acc)

	qgemvAcc(l.Out, inF, ql.qw, qin, acc, m.workers)
	for o := 0; o < l.Out; o++ {
		out.Data[o] = float32(acc[o]-qp.Zero*ql.rowSum[o])*(qp.Scale*ql.ws[o]) + ql.bias[o]
	}
	return out
}

// quantizeAct converts one activation tensor to int8 codes, split
// across workers. Rounding is round-half-away-from-zero via math.Round
// — deterministic, so client and server quantize identically.
func quantizeAct(dst []int8, src []float32, p tensor.QParams, workers int) {
	inv := 1 / float64(p.Scale)
	zero := float64(p.Zero)
	if serialSpan(workers, len(src)) {
		quantizeSpan(dst, src, inv, zero, 0, len(src))
		return
	}
	parallelFor(workers, len(src), func(lo, hi int) {
		quantizeSpan(dst, src, inv, zero, lo, hi)
	})
}

// quantizeSpan quantizes elements [lo, hi). The assembly kernel (see
// quant_avx2_amd64.s) takes 8-element groups and is bit-identical to
// the scalar loop below, which always handles the tail — and, without
// asm, the whole span.
func quantizeSpan(dst []int8, src []float32, inv, zero float64, lo, hi int) {
	if asmQuantOK && hi-lo >= 8 {
		n := (hi - lo) &^ 7
		quantizeSpanAsm(&dst[lo], &src[lo], inv, zero, n)
		lo += n
	}
	for i := lo; i < hi; i++ {
		q := math.Round(float64(src[i])*inv) + zero
		if q < -128 {
			q = -128
		}
		if q > 127 {
			q = 127
		}
		dst[i] = int8(q)
	}
}

// requantizeRow applies the integer-to-float epilogue over one output
// channel row: subtract the zero-point correction, scale, add bias.
func requantizeRow(dst []float32, acc []int32, corr int32, mul, bias float32) {
	for j, v := range acc {
		dst[j] = float32(v-corr)*mul + bias
	}
}
