package engine

// Elementwise span kernels: the per-channel scale–shift of BatchNorm,
// the ReLU/ReLU6 clamps and the residual add, each over one contiguous
// run of floats. The loops below are the definition — and the whole
// implementation under the noasm tag, DNNJPS_NOASM and every GOARCH
// without a vector form. Where asmVecOK, the leading multiple of eight
// elements goes through span_avx2_amd64.s, which computes the same
// values to the bit (separate multiply and add, clamps that reproduce
// these branches for -0 and NaN), so neither path is a tolerance case —
// as long as the compiler does not contract v*scale + shift on amd64,
// which it does at no GOAMD64 level today (see the assembly's header
// for what catches it if that changes).
// dst and src have equal length and may be the same slice.

// spanAct is the clamp a span kernel applies after its arithmetic; the
// values are the assembly's act argument.
type spanAct int

const (
	spanNoAct spanAct = iota
	spanReLU
	spanReLU6
)

func relu(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}

func relu6(v float32) float32 {
	switch {
	case v <= 0:
		return 0
	case v >= 6:
		return 6
	}
	return v
}

// affineSpan computes dst[i] = act(src[i]*scale + shift).
func affineSpan(dst, src []float32, scale, shift float32, act spanAct) {
	if asmVecOK && len(src) >= 8 {
		n := len(src) &^ 7
		spanAffineAsm(&dst[0], &src[0], n, scale, shift, int(act))
		dst, src = dst[n:], src[n:]
	}
	dst = dst[:len(src)]
	switch act {
	case spanNoAct:
		for i, v := range src {
			dst[i] = v*scale + shift
		}
	case spanReLU:
		for i, v := range src {
			dst[i] = relu(v*scale + shift)
		}
	case spanReLU6:
		for i, v := range src {
			dst[i] = relu6(v*scale + shift)
		}
	}
}

// actSpan computes dst[i] = act(src[i]) for spanReLU and spanReLU6.
func actSpan(dst, src []float32, act spanAct) {
	if asmVecOK && len(src) >= 8 {
		n := len(src) &^ 7
		spanActAsm(&dst[0], &src[0], n, int(act))
		dst, src = dst[n:], src[n:]
	}
	dst = dst[:len(src)]
	if act == spanReLU {
		for i, v := range src {
			dst[i] = relu(v)
		}
		return
	}
	for i, v := range src {
		dst[i] = relu6(v)
	}
}

// addSpan computes dst[i] += src[i].
func addSpan(dst, src []float32) {
	if asmVecOK && len(src) >= 8 {
		n := len(src) &^ 7
		spanAddAsm(&dst[0], &src[0], n)
		dst, src = dst[n:], src[n:]
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}
