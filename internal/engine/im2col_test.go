package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dnnjps/internal/models"
	"dnnjps/internal/nn"
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

// convPackCase is one check of the fused packer: a packed batch of n
// images of inC channels, whose group channels [cLo, cLo+icpg) a kh×kw
// kernel lowers.
type convPackCase struct {
	inC, inH, inW, kh, kw, stride, padH, padW, n, cLo, icpg int
}

// packWindow is one pack call: rows [kp, kp+kc), columns [jp, jp+nc).
type packWindow struct{ kp, kc, jp, nc int }

func (c convPackCase) out() (outH, outW int) {
	return (c.inH+2*c.padH-c.kh)/c.stride + 1, (c.inW+2*c.padW-c.kw)/c.stride + 1
}

// checkConvPack packs each window through bPacker in conv mode and in
// plain mode over the materialized patch matrix (im2colTile of the
// whole batch), and requires the same bits in every packed float, the
// last strip's zero padding included: both destinations start as NaN,
// so a float one packer writes and the other skips shows. It returns
// the conv-mode packs.
func checkConvPack(t *testing.T, c convPackCase, seed int64, wins []packWindow) [][]float32 {
	t.Helper()
	outH, outW := c.out()
	hw := outH * outW
	kSize := c.icpg * c.kh * c.kw
	rng := rand.New(rand.NewSource(seed))
	src := make([]float32, c.inC*c.n*c.inH*c.inW)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	ref := make([]float32, kSize*hw*c.n)
	im2colTile(src, ref, 0, c.cLo, c.icpg, c.inH, c.inW, c.kh, c.kw, c.stride, c.padH, c.padW, outH, outW, 1, c.n, 0, c.n)
	conv := bPacker{conv: true, src: src, inH: c.inH, inW: c.inW,
		kh: c.kh, kw: c.kw, stride: c.stride, padH: c.padH, padW: c.padW,
		outW: outW, cLo: c.cLo, n: c.n, hw: hw}
	plain := bPacker{b: ref, ldb: hw * c.n}
	var packs [][]float32
	for _, win := range wins {
		if win.kc < 1 || win.nc < 1 {
			continue
		}
		strips := (win.nc + asmNR - 1) / asmNR * asmNR
		got := make([]float32, strips*win.kc)
		want := make([]float32, strips*win.kc)
		for i := range got {
			got[i], want[i] = float32(math.NaN()), float32(math.NaN())
		}
		conv.pack(win.kp, win.kc, win.jp, win.nc, got)
		plain.pack(win.kp, win.kc, win.jp, win.nc, want)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%+v window %+v: packed[%d] = %g, want %g", c, win, i, got[i], want[i])
			}
		}
		packs = append(packs, got)
	}
	return packs
}

// TestConvFusedIm2colParity drives the fused-im2col B packer against
// the materialized patch matrix (checkConvPack), which isolates the
// packer from the tile so a window-splitting bug cannot hide behind
// the FMA tolerance. The hand cases come first; then every Conv2D
// geometry of the zoo at n = 1 and 3, on two of three channels (the
// row lowering depends on the channel only through its offset), with
// windows that start mid-image, mid-output-row and mid-channel, cross
// an image seam, end ragged, and lie wholly inside the padding.
func TestConvFusedIm2colParity(t *testing.T) {
	cases := []struct {
		inC, inH, inW                 int
		kh, kw, stride, padH, padW, n int
	}{
		{3, 15, 15, 3, 3, 1, 1, 1, 1},
		{4, 13, 13, 5, 5, 3, 2, 2, 1},
		{2, 9, 9, 7, 7, 1, 3, 3, 1},
		{4, 10, 12, 1, 3, 1, 0, 1, 1},
		{3, 15, 15, 3, 3, 1, 1, 1, 4}, // batched: windows split at image seams
		{2, 7, 9, 3, 1, 2, 1, 0, 3},
	}
	for ci, c := range cases {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			pc := convPackCase{c.inC, c.inH, c.inW, c.kh, c.kw, c.stride, c.padH, c.padW, c.n, 0, c.inC}
			outH, outW := pc.out()
			kSize := c.inC * c.kh * c.kw
			nTot := outH * outW * c.n
			checkConvPack(t, pc, int64(ci+5), []packWindow{
				{0, kSize, 0, nTot},
				{kSize / 3, kSize - kSize/3, nTot / 3, nTot - nTot/3},
				{1, min(5, kSize-1), 3, min(2*asmNR+5, nTot-3)},
			})
		})
	}
	seen := map[convPackCase]bool{}
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		for _, id := range g.Topo() {
			l, ok := g.Node(id).Layer.(*nn.Conv2D)
			if !ok {
				continue
			}
			in := g.InputShapes(id)[0]
			for _, n := range []int{1, 3} {
				c := convPackCase{3, in.H(), in.W(), l.KH, l.KW, l.Stride, l.EffPadH(), l.EffPadW(), n, 1, 2}
				if seen[c] {
					continue
				}
				seen[c] = true
				t.Run(fmt.Sprintf("%s/%s/n%d", name, l.Name(), n), func(t *testing.T) { checkZooConvPack(t, c) })
			}
		}
	}
}

// checkZooConvPack checks one zoo geometry on the windows that
// TestConvFusedIm2colParity names, and that the padding window packs
// zeros only.
func checkZooConvPack(t *testing.T, c convPackCase) {
	outH, outW := c.out()
	hw := outH * outW
	khw := c.kh * c.kw
	kSize := c.icpg * khw
	nTot := c.n * hw
	// clamp keeps a window inside the matrix and nc inside one block.
	clamp := func(w packWindow) packWindow {
		w.kp = min(max(w.kp, 0), kSize-1)
		w.kc = min(max(w.kc, 1), kSize-w.kp)
		w.jp = min(max(w.jp, 0), nTot-1)
		w.nc = min(max(w.nc, 1), asmNC, nTot-w.jp)
		return w
	}
	wins := []packWindow{
		clamp(packWindow{0, asmKC, 0, asmNC}),                                // the first block
		clamp(packWindow{khw/2 + 1, khw + 3, hw/2 + outW/3, asmNC}),          // mid-channel, mid-image, mid-row
		clamp(packWindow{kSize - khw - 1, kSize, hw - outW/2 - 1, 2*hw + 5}), // across the image seams
		clamp(packWindow{0, kSize, nTot - 37, 37}),                           // ragged last strip
	}
	// Kernel row 0 above the image: the last image's first output row
	// reads only padding when padH > 0, its first column when padW > 0.
	pad := -1
	switch {
	case c.padH > 0:
		pad = len(wins)
		wins = append(wins, packWindow{0, 1, (c.n - 1) * hw, outW})
	case c.padW > 0:
		pad = len(wins)
		wins = append(wins, packWindow{0, 1, (c.n - 1) * hw, 1})
	}
	packs := checkConvPack(t, c, int64(c.inH*131+c.kh*17+c.stride+c.n), wins)
	if pad >= 0 {
		for i, v := range packs[pad] {
			if v != 0 {
				t.Fatalf("%+v padding window %+v: packed[%d] = %g, want 0", c, wins[pad], i, v)
			}
		}
	}
}

// FuzzConvPack holds the fused packer to the materialized patch matrix
// (checkConvPack) on geometries and windows drawn from bytes: inC 1–4,
// planes 1–20 on a side, kernels 1–11 on a side, stride 1–4, padding
// below the kernel, n 1–3, the group starting at any channel, and any
// window of at most asmNC columns. Seeds — AlexNet's 11×11/s4 stem
// shrunk, a window inside the padding, image seams, a kernel as large
// as the padded plane — are committed under testdata/fuzz.
func FuzzConvPack(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		c := convPackCase{inC: 1 + next()%4, inH: 1 + next()%20, inW: 1 + next()%20,
			kh: 1 + next()%11, kw: 1 + next()%11, stride: 1 + next()%4, n: 1 + next()%3}
		c.padH, c.padW = next()%c.kh, next()%c.kw
		c.cLo = next() % c.inC
		c.icpg = c.inC - c.cLo
		if c.inH+2*c.padH < c.kh || c.inW+2*c.padW < c.kw {
			t.Skip("kernel larger than the padded plane")
		}
		outH, outW := c.out()
		kSize, nTot := c.icpg*c.kh*c.kw, c.n*outH*outW
		word := func() int { return next()<<8 | next() }
		var w packWindow
		w.kp = word() % kSize
		w.kc = 1 + word()%(kSize-w.kp)
		w.jp = word() % nTot
		w.nc = 1 + word()%min(asmNC, nTot-w.jp)
		checkConvPack(t, c, 1, []packWindow{w})
	})
}

// TestConvPackAllocs pins the fused packer to no allocation: each patch
// row is lowered into a buffer in pack's own frame, so packing AlexNet
// conv2's first block (a 64×27×27 input, 5×5 with padding 2: 256 of
// K's 1 600 rows, all 729 columns) must not move it to the heap.
func TestConvPackAllocs(t *testing.T) {
	pk := bPacker{conv: true, src: make([]float32, 64*27*27), inH: 27, inW: 27,
		kh: 5, kw: 5, stride: 1, padH: 2, padW: 2, outW: 27, n: 1, hw: 27 * 27}
	dst := make([]float32, asmKC*asmNC)
	if allocs := testing.AllocsPerRun(10, func() { pk.pack(0, asmKC, 0, 27*27, dst) }); allocs != 0 {
		t.Fatalf("conv-mode pack of AlexNet conv2's first block: %v allocations, want 0", allocs)
	}
}
