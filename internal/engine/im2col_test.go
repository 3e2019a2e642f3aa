package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// im2colGeom is one lowering to check: a packed batch of n images of
// inC channels, and the tile — channels [cLo, cLo+icpg) of images
// [b0, b0+bt) — that im2colTile is asked for.
type im2colGeom struct {
	inC, inH, inW, kh, kw, stride, padH, padW, n int
	cLo, icpg, b0, bt                            int
}

// checkIm2colDefinition holds every element of im2colTile's output to
// the definition of the patch matrix: row k = (c·kh + r)·kw + s, image
// b0+bi, output position (oh, ow) is the input element at
// (ih, iw) = (oh·stride − padH + r, ow·stride − padW + s) of plane
// (cLo+c)·n + b0+bi, or the pad code where that leaves the plane. fill
// draws source values that never equal pad, and unset, a value fill
// never draws, is what dst holds before the call.
func checkIm2colDefinition[T float32 | int8](t *testing.T, g im2colGeom, pad, unset T, fill func(*rand.Rand) T) {
	t.Helper()
	outH := (g.inH+2*g.padH-g.kh)/g.stride + 1
	outW := (g.inW+2*g.padW-g.kw)/g.stride + 1
	hw := outH * outW
	rng := rand.New(rand.NewSource(11))
	src := make([]T, g.inC*g.n*g.inH*g.inW)
	for i := range src {
		src[i] = fill(rng)
	}
	for _, workers := range []int{1, 3} {
		dst := make([]T, g.icpg*g.kh*g.kw*g.bt*hw)
		for i := range dst {
			dst[i] = unset
		}
		im2colTile(src, dst, pad, g.cLo, g.icpg, g.inH, g.inW, g.kh, g.kw, g.stride, g.padH, g.padW, outH, outW, workers, g.n, g.b0, g.bt)
		for k := 0; k < g.icpg*g.kh*g.kw; k++ {
			c, r, s := k/(g.kh*g.kw), k%(g.kh*g.kw)/g.kw, k%g.kw
			for bi := 0; bi < g.bt; bi++ {
				for oh := 0; oh < outH; oh++ {
					for ow := 0; ow < outW; ow++ {
						ih, iw := oh*g.stride-g.padH+r, ow*g.stride-g.padW+s
						want := pad
						if ih >= 0 && ih < g.inH && iw >= 0 && iw < g.inW {
							want = src[((g.cLo+c)*g.n+g.b0+bi)*g.inH*g.inW+ih*g.inW+iw]
						}
						if got := dst[k*g.bt*hw+bi*hw+oh*outW+ow]; got != want {
							t.Fatalf("workers=%d row %d (c=%d r=%d s=%d) image %d (oh=%d ow=%d): got %v, want %v",
								workers, k, c, r, s, g.b0+bi, oh, ow, got, want)
						}
					}
				}
			}
		}
	}
}

// TestIm2colMatchesDefinition checks the one lowering at both element
// types against the definition, element by element. The int8 pad code
// is −3, so a kernel that wrote a literal 0 fails; before this the int8
// patch matrix was checked only end to end, through the quantized
// goldens.
func TestIm2colMatchesDefinition(t *testing.T) {
	geoms := []im2colGeom{
		// The six geometries of TestConvFusedIm2colParity, whole batch.
		{inC: 3, inH: 15, inW: 15, kh: 3, kw: 3, stride: 1, padH: 1, padW: 1, n: 1},
		{inC: 4, inH: 13, inW: 13, kh: 5, kw: 5, stride: 3, padH: 2, padW: 2, n: 1},
		{inC: 2, inH: 9, inW: 9, kh: 7, kw: 7, stride: 1, padH: 3, padW: 3, n: 1},
		{inC: 4, inH: 10, inW: 12, kh: 1, kw: 3, stride: 1, padH: 0, padW: 1, n: 1},
		{inC: 3, inH: 15, inW: 15, kh: 3, kw: 3, stride: 1, padH: 1, padW: 1, n: 4},
		{inC: 2, inH: 7, inW: 9, kh: 3, kw: 1, stride: 2, padH: 1, padW: 0, n: 3},
		// A tile that starts mid-batch, in the second group of channels.
		{inC: 3, inH: 15, inW: 15, kh: 3, kw: 3, stride: 1, padH: 1, padW: 1, n: 4, cLo: 1, icpg: 2, b0: 1, bt: 2},
	}
	for gi, g := range geoms {
		if g.icpg == 0 {
			g.icpg, g.bt = g.inC, g.n
		}
		t.Run(fmt.Sprintf("float32/case%d", gi), func(t *testing.T) {
			checkIm2colDefinition(t, g, 0, float32(math.NaN()), func(rng *rand.Rand) float32 {
				return float32(rng.Intn(1<<20) + 1)
			})
		})
		t.Run(fmt.Sprintf("int8/case%d", gi), func(t *testing.T) {
			checkIm2colDefinition(t, g, -3, 127, func(rng *rand.Rand) int8 {
				if v := int8(rng.Intn(200) - 100); v != -3 {
					return v
				}
				return 3
			})
		})
	}
}
