package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dnnjps/internal/models"
	"dnnjps/internal/tensor"
)

// Parity contract for the assembly kernels (see gemm_asm.go):
//
//   - When the asm path is off (noasm tag, any GOARCH but amd64, an
//     amd64 CPU without AVX2+FMA, or DNNJPS_NOASM) every driver is
//     pure Go and bit-identical — the tests in this package compare
//     exactly.
//   - When the f32 asm path is on, kernelAsm and the kernelGEMM
//     routing past the tile guard use FMA: one rounding per
//     multiply-add instead of two. Accumulation still walks k
//     ascending with one accumulator per element, so for a length-k
//     dot product the fused and unfused results each sit within the
//     standard γ_k = k·u/(1−k·u) forward-error envelope (u = 2⁻²⁴)
//     of the exact value, and within ~2·γ_k·Σ|aᵢbᵢ| of each other.
//     For the deepest layer here (k ≈ 4608) that is ≲ 3e-4 relative
//     against the magnitude of the products; observed differences on
//     normal-distributed data are ~1e-7..1e-6 relative to the largest
//     output in a slice (individual elements can be much smaller
//     through cancellation while carrying the same absolute error).
//     asmRelTol budgets well inside the analytic bound with a wide
//     margin over the observed one.
//   - The int8 kernels are exact everywhere: integer addition is
//     associative and VPMADDWD pair sums cannot saturate for codes in
//     [-128, 127], so the quantized tests keep comparing bitwise.
const (
	asmRelTol = 1e-4
	asmAbsTol = 1e-6
)

// assertSliceParity compares got against ref elementwise: bitwise when
// exact, within the FMA envelope otherwise. The envelope anchors the
// relative term to the largest magnitude in the slice rather than to
// each element — rounding error in a dot product scales with the
// magnitudes of the accumulated products, so an element made small by
// cancellation carries the same absolute error as its large
// neighbors, not a proportionally smaller one. ctx prefixes failures.
func assertSliceParity(t *testing.T, ctx string, got, ref []float32, exact bool) {
	t.Helper()
	if exact {
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: out[%d] = %g, want %g (bitwise)", ctx, i, got[i], ref[i])
			}
		}
		return
	}
	var scale float64
	for i := range ref {
		if v := math.Abs(float64(ref[i])); v > scale {
			scale = v
		}
	}
	tol := asmAbsTol + asmRelTol*scale
	for i := range ref {
		if d := math.Abs(float64(got[i]) - float64(ref[i])); d > tol {
			t.Fatalf("%s: out[%d] = %g, want %g (|diff| %g > tol %g at scale %g)",
				ctx, i, got[i], ref[i], d, tol, scale)
		}
	}
}

// TestPreferAsmTileGuard: shapes the asm tile cannot cover stay off it
// under the auto policy on every CPU, and past the guard the routing
// rule is the CPU's capability and the caller's selection — nothing
// else.
func TestPreferAsmTileGuard(t *testing.T) {
	cases := []struct{ m, k int }{
		{asmMR - 1, 64}, // too few rows
		{64, 7},         // too shallow to amortize packing
		{1, 1},
	}
	for _, c := range cases {
		if preferAsm(c.m, c.k) || useAsm(kernelGEMM, c.m, c.k) {
			t.Errorf("auto policy routes untileable shape (%d,%d) to asm", c.m, c.k)
		}
		// Forcing the tile bypasses the guard (edge tiles run through
		// the scratch patch) but never the CPU check.
		if got := useAsm(kernelAsm, c.m, c.k); got != asmEnabled() {
			t.Errorf("useAsm(kernelAsm,%d,%d) = %v, want %v", c.m, c.k, got, asmEnabled())
		}
	}
	if !preferAsm(asmMR, 8) {
		t.Error("preferAsm rejects exactly one full strip at k=8")
	}
	// The dense head takes the tile whatever the group: a single column
	// (one job alone) rides it as a group of 32 does.
	if !preferAsm(1000, 1280) {
		t.Error("preferAsm keeps a single-column dense head off the tile")
	}
	if got := useAsm(kernelGEMM, 256, 1152); got != asmEnabled() {
		t.Errorf("useAsm(kernelGEMM, 256,1152) = %v, want asmEnabled() = %v", got, asmEnabled())
	}
	for _, kern := range []kernelPath{kernelPanel, kernelDirect} {
		if useAsm(kern, 256, 1152) {
			t.Errorf("useAsm(%v) = true: a forced pure-Go path reached the asm tile", kern)
		}
	}
}

// TestSgemmAccDriverParity runs sgemmAcc under every kernel selection
// at shapes straddling the tile guard, against the forced panel
// driver. Whatever useAsm keeps off the FMA tile must match bitwise —
// every selection, when the asm path is off — and the rest compares
// within the envelope above. This pins the contract that lets the
// routing rule be retuned freely.
func TestSgemmAccDriverParity(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{asmMR - 1, 8, asmNR}, // below the row guard: auto must stay on panel
		{asmMR, 8, 1},         // a single column: on the tile, as every n is
		{asmMR, 8, asmNR - 1}, // a partial strip of columns
		{asmMR, 7, asmNR},     // below the depth guard
		{asmMR, 8, asmNR},     // exactly one tile
		// The same edges around the AVX2 tile's 6-row strip, below
		// amd64's 12-row guard: auto stays on panel, kernelAsm runs one
		// ragged strip.
		{5, 8, 16}, {6, 8, 1}, {6, 8, 15}, {6, 7, 16}, {6, 8, 16},
		{7, 5, 9},       // ragged edges in every dimension
		{48, 96, 64},    // small B working set
		{64, 1152, 256}, // deep-K conv-lowered shape
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("m%d_k%d_n%d", sh.m, sh.k, sh.n), func(t *testing.T) {
			a, b := randOperands(sh.m, sh.k, sh.n, int64(sh.m*1000+sh.n))
			ref := make([]float32, sh.m*sh.n)
			sgemmAcc(kernelPanel, sh.m, sh.k, sh.n, sh.n, a, b, ref, 1)
			for _, kern := range []kernelPath{kernelGEMM, kernelAsm} {
				exact := !useAsm(kern, sh.m, sh.k)
				for _, workers := range []int{1, 4} {
					c := make([]float32, sh.m*sh.n)
					sgemmAcc(kern, sh.m, sh.k, sh.n, sh.n, a, b, c, workers)
					assertSliceParity(t, fmt.Sprintf("%v workers=%d vs panel", kern, workers),
						c, ref, exact)
				}
			}
		})
	}
}

// randOperands returns normal-distributed row-major m×k and k×n
// matrices.
func randOperands(m, k, n int, seed int64) (a, b []float32) {
	rng := rand.New(rand.NewSource(seed))
	a = make([]float32, m*k)
	b = make([]float32, k*n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	return a, b
}

// stridedA spreads a compact m×k matrix over rows lda ≥ k apart, ending
// at the last row's last element. The gaps hold NaN: a tile that read
// one as data would poison its whole row of C.
func stridedA(a []float32, m, k, lda int, alloc func(int) []float32) []float32 {
	sa := alloc((m-1)*lda + k)
	for i := range sa {
		sa[i] = float32(math.NaN())
	}
	for i := 0; i < m; i++ {
		copy(sa[i*lda:i*lda+k], a[i*k:(i+1)*k])
	}
	return sa
}

// sgemmShapeParity fills random m×k · k×n operands and checks the
// forced-asm driver against the panel reference. Shared by the table
// test and the fuzz target. With lda == k it goes through sgemmAcc's
// dispatch; a wider row stride (which only the asm driver takes) calls
// the driver itself. With the asm path off kernelAsm degrades to the
// panel loop, so the comparison tightens to bitwise.
func sgemmShapeParity(t *testing.T, m, k, n, lda int, seed int64) {
	t.Helper()
	a, b := randOperands(m, k, n, seed)
	ref := make([]float32, m*n)
	sgemmAcc(kernelPanel, m, k, n, n, a, b, ref, 1)
	strided := asmEnabled() && lda != k
	if strided {
		a = stridedA(a, m, k, lda, func(n int) []float32 { return make([]float32, n) })
	}
	for _, workers := range []int{1, 4} {
		c := make([]float32, m*n)
		if strided {
			sgemmAsm(m, k, n, lda, n, a, bPacker{b: b, ldb: n}, c, workers)
		} else {
			sgemmAcc(kernelAsm, m, k, n, n, a, b, c, workers)
		}
		assertSliceParity(t, fmt.Sprintf("m%d k%d n%d lda%d workers=%d", m, k, n, lda, workers),
			c, ref, !asmEnabled())
	}
}

// TestSgemmAsmReadsAInBounds: the tile dereferences the weights where
// they lie, so what it may touch is exactly m rows of k floats. A sits
// flush against the end of its allocation — on linux the next byte is
// an unmapped guard page, so one float too many faults instead of
// passing silently — at row counts around the asmMR strip (full strips
// read in place, the ragged last one through the zeroed scratch), k
// around the asmKC panel edge, and with lda > k (gaps between rows
// that are not part of the matrix). A narrow n also takes k past asmKC
// in deep panels — one strip (5) or several (17, 32, 48: a panel then
// spans every strip of the block) — which the ragged strip walks in
// asmKC sub-panels (4 097 leaves a last sub-panel one step deep; 9 216
// is fc6's reduction).
//
// A 12-row strip (m = 12, 13, 23) reads its last row flush against the
// guard page. Where the AVX-512 tile is live, every shape also runs in
// the AVX2 tile's 6-row strips.
func TestSgemmAsmReadsAInBounds(t *testing.T) {
	if !asmEnabled() {
		t.Skip("asm path off: no code reads A through a raw pointer")
	}
	check := func(m, k, n, pad int) {
		a, b := randOperands(m, k, n, int64(m*1000+k+pad))
		ref := make([]float32, m*n)
		sgemmAcc(kernelPanel, m, k, n, n, a, b, ref, 1)
		lda := k + pad
		sa := stridedA(a, m, k, lda, func(n int) []float32 { return guardedFloats(t, n) })
		sweep := func(tile string) {
			c := make([]float32, m*n)
			sgemmAsm(m, k, n, lda, n, sa, bPacker{b: b, ldb: n}, c, 1)
			assertSliceParity(t, fmt.Sprintf("%s m%d k%d n%d lda%d", tile, m, k, n, lda), c, ref, false)
		}
		sweep("engine tile")
		if asmAVX512OK {
			onAVX2Tile(func() { sweep("AVX2 tile") })
		}
	}
	for _, m := range []int{1, 5, 6, 7, 11, 12, 13, 23} {
		for _, k := range []int{1, 7, 255, 256, 257, 363} {
			for _, pad := range []int{0, 3} {
				for _, n := range []int{5, 49} {
					check(m, k, n, pad)
				}
			}
		}
	}
	for _, m := range []int{5, 7, 11, 13, 23} {
		for _, k := range []int{4097, 9216} {
			for _, pad := range []int{0, 3} {
				for _, n := range []int{5, 17, 32, 48} {
					check(m, k, n, pad)
				}
			}
		}
	}
}

// TestSgemmPanelDepthBitIdentical: how deep the driver takes K at a
// block's width, and how workers split the GEMM, change no bits. Each C
// element is one FMA chain in ascending k, stored and reloaded exactly
// between panels, so sgemmAsm must equal the same GEMM run as
// successive asmKC-deep slices of K accumulated into one C — the
// schedule of a driver that never went deeper than asmKC — at every
// worker count. The widths cover one strip (2: 16 384 deep), the 17–32
// column groups of a batching server (8 192), three strips (48: 5 376),
// the 169- and 196-column convs' blocks (176, 208: 1 280 and 1 024) and
// two N blocks (1 100: 256 deep, then 3 072 for the 76 left over; three
// workers split it into 368-column blocks, 512 deep); k spans several
// panels at each, with a ragged last one, and m a ragged strip of rows.
// The last row is the dense head at widths too narrow to give two
// workers two column strips each — one job, and groups of 17 and 31 —
// where the workers split the rows instead, in whole tile strips, at
// 1 000 rows and at a ragged 1 001.
func TestSgemmPanelDepthBitIdentical(t *testing.T) {
	if !asmEnabled() {
		t.Skip("asm path off: the panel loop has no K panels of this driver")
	}
	for _, sh := range []struct {
		ms, ns []int
		k      int
	}{
		{[]int{30}, []int{2, 17, 32, 48}, 16384 + 300},
		{[]int{30}, []int{176, 208, 1100}, 3072 + 257},
		{[]int{1000, 1001}, []int{1, 17, 31}, 1280},
	} {
		for _, m := range sh.ms {
			k := sh.k
			for _, n := range sh.ns {
				a, b := randOperands(m, k, n, int64(n))
				sliced := make([]float32, m*n)
				for kp := 0; kp < k; kp += asmKC {
					kc := min(asmKC, k-kp)
					sgemmAsm(m, kc, n, k, n, a[kp:], bPacker{b: b[kp*n:], ldb: n}, sliced, 1)
				}
				for _, workers := range []int{1, 2, 3} {
					c := make([]float32, m*n)
					sgemmAsm(m, k, n, k, n, a, bPacker{b: b, ldb: n}, c, workers)
					assertSliceParity(t, fmt.Sprintf("m%d k%d n%d workers=%d vs asmKC slices", m, k, n, workers), c, sliced, true)
				}
			}
		}
	}
}

// onAVX2Tile runs f with sgemmAsm pinned to the AVX2 6x16 tile in
// 6-row strips, as on a host without AVX-512.
func onAVX2Tile(f func()) {
	defer func(was bool) { asmAVX512OK = was }(asmAVX512OK)
	asmAVX512OK = false
	f()
}

// TestSgemmTilesBitIdentical: the AVX-512 12x16 tile and the AVX2 6x16
// tile run each C element's FMA chain in the same ascending k, so a
// GEMM — and a whole forward — must give the same bits on either.
// Shapes cover every m mod 12 from 1 to 11 (the ragged strip through
// the zeroed scratch, at either strip height), ragged columns, rows
// lda > k apart, and a K of 9 216 + 5 in deep panels at one strip and
// at three.
func TestSgemmTilesBitIdentical(t *testing.T) {
	if !asmAVX512OK {
		t.Skip("no AVX-512 tile on this host or build")
	}
	same := func(ctx string, run func() []float32) {
		t.Helper()
		wide := run()
		var narrow []float32
		onAVX2Tile(func() { narrow = run() })
		assertSliceParity(t, ctx+": AVX-512 vs AVX2 tile", wide, narrow, true)
	}
	type shape struct{ m, k, n, lda int }
	var shapes []shape
	for r := 1; r <= 11; r++ {
		shapes = append(shapes, shape{r, 37, 40, 37}, shape{12 + r, 37, 40, 40})
	}
	shapes = append(shapes,
		shape{24, 300, 17, 300},       // ragged columns, two K panels
		shape{36, 64, asmNR, 64},      // full tiles only
		shape{25, 9216 + 5, 7, 9221},  // one strip: one deep K panel
		shape{24, 9216 + 5, 40, 9221}, // three strips: two deep K panels
		shape{64, 1152, 1100, 1152},   // two N blocks
	)
	for _, sh := range shapes {
		a, b := randOperands(sh.m, sh.k, sh.n, int64(sh.m*7919+sh.k))
		if sh.lda != sh.k {
			a = stridedA(a, sh.m, sh.k, sh.lda, func(n int) []float32 { return make([]float32, n) })
		}
		for _, workers := range []int{1, 3} {
			same(fmt.Sprintf("m%d k%d n%d lda%d workers=%d", sh.m, sh.k, sh.n, sh.lda, workers), func() []float32 {
				c := make([]float32, sh.m*sh.n)
				sgemmAsm(sh.m, sh.k, sh.n, sh.lda, sh.n, a, bPacker{b: b, ldb: sh.n}, c, workers)
				return c
			})
		}
	}
	if testing.Short() {
		return
	}
	// Whole forwards at a batch of two: every conv and pointwise layer,
	// and the dense layers, on the engine's own routing.
	for _, name := range []string{"alexnet", "mobilenetv2"} {
		g := models.MustBuild(name)
		m := Load(g, 5).Parallel(2)
		ins := []*tensor.Tensor{randInput(g.Node(g.Source()).OutShape, 1), randInput(g.Node(g.Source()).OutShape, 2)}
		same(name, func() []float32 {
			outs, err := m.ForwardBatch(ins)
			if err != nil {
				t.Fatal(err)
			}
			return slices.Concat(outs[0].Data, outs[1].Data)
		})
	}
}

// TestSgemmAsmVsScalar pins the asm tile against the scalar panel
// driver at shapes covering full tiles, every ragged edge, the blocked
// loop boundaries (KC/MC/NC), and conv-lowered geometry.
func TestSgemmAsmVsScalar(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{asmMR, 8, asmNR},           // exactly one tile
		{asmMR, 8, asmNR + 3},       // ragged columns
		{asmMR + 2, 8, asmNR},       // ragged rows
		{asmMR + 1, 9, asmNR + 7},   // ragged everything
		{6, 8, 16},                  // the AVX2 tile's strip: one full 6-row strip
		{6, 8, 19},                  // ... with ragged columns
		{8, 8, 16},                  // ... and ragged rows
		{7, 9, 23},                  // ... and both
		{7, 5, 17},                  // below the k guard on no axis, odd sizes
		{48, 96, 64},                // mid-size
		{64, asmKC + 13, 128},       // spans two K panels
		{139, 64, 96},               // many row strips, ragged tail on both tiles (139 = 11·12+7 = 17·8+3)
		{12, 64, asmNC + asmNR + 5}, // spans two N blocks, ragged tail
		{64, 1152, 256},             // alexnet conv3-lowered shape
		{13, 9216 + 5, 7},           // one strip: one deep panel, ragged rows in asmKC sub-panels
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("m%d_k%d_n%d", sh.m, sh.k, sh.n), func(t *testing.T) {
			sgemmShapeParity(t, sh.m, sh.k, sh.n, sh.k, int64(sh.m*100003+sh.k*1009+sh.n))
		})
	}
}

// FuzzSgemmAsmVsScalar fuzzes the asm-vs-panel comparison over
// arbitrary small shapes. Seeds covering the tile edges are committed
// under testdata/fuzz. A's row stride comes from the seed (k, k+1 or
// k+2), so the corpus keeps its four-argument form and still covers
// both lda == k and lda ≠ k.
func FuzzSgemmAsmVsScalar(f *testing.F) {
	f.Add(asmMR, 8, asmNR, int64(1))
	f.Add(asmMR+1, 9, asmNR+7, int64(2))
	f.Add(1, 1, 1, int64(3))
	f.Add(13, asmKC+1, 33, int64(4))
	f.Fuzz(func(t *testing.T, m, k, n int, seed int64) {
		if m < 1 || k < 1 || n < 1 || m > 160 || k > 600 || n > 1100 {
			t.Skip()
		}
		sgemmShapeParity(t, m, k, n, k+int(uint64(seed)%3), seed)
	})
}

// TestConvFusedIm2colParity drives the fused-im2col B packer against
// the materialized patch matrix: for each conv geometry, pack strips
// through bPacker in conv mode and through plain mode over the
// im2colGroup output, and require identical bytes. This isolates the
// packer from the tile so a window-splitting bug cannot hide behind
// the FMA tolerance.
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
			outH := (c.inH+2*c.padH-c.kh)/c.stride + 1
			outW := (c.inW+2*c.padW-c.kw)/c.stride + 1
			hw := outH * outW
			kSize := c.inC * c.kh * c.kw
			rng := rand.New(rand.NewSource(int64(ci + 5)))
			src := make([]float32, c.inC*c.n*c.inH*c.inW)
			for i := range src {
				src[i] = float32(rng.NormFloat64())
			}
			// Reference patch matrix, one image at a time (the packed
			// batch layout keeps each (channel, image) plane contiguous).
			ref := make([]float32, kSize*hw*c.n)
			for b := 0; b < c.n; b++ {
				for kr := 0; kr < kSize; kr++ {
					ch := kr / (c.kh * c.kw)
					r := kr % (c.kh * c.kw) / c.kw
					s := kr % c.kw
					im2colRow(src, ref[kr*hw*c.n+b*hw:kr*hw*c.n+(b+1)*hw], 0,
						(ch*c.n+b)*c.inH*c.inW, r, s, c.inH, c.inW, c.stride, c.padH, c.padW, outH, outW)
				}
			}
			conv := bPacker{conv: true, src: src, inH: c.inH, inW: c.inW,
				kh: c.kh, kw: c.kw, stride: c.stride, padH: c.padH, padW: c.padW,
				outW: outW, cLo: 0, n: c.n, hw: hw}
			plain := bPacker{b: ref, ldb: hw * c.n}
			nTot := hw * c.n
			for _, win := range []struct{ kp, kc, jp, nc int }{
				{0, kSize, 0, nTot},
				{kSize / 3, kSize - kSize/3, nTot / 3, nTot - nTot/3},
				{1, min(5, kSize-1), 3, min(2*asmNR+5, nTot-3)},
			} {
				if win.kc < 1 || win.nc < 1 {
					continue
				}
				strips := (win.nc + asmNR - 1) / asmNR * asmNR
				got := make([]float32, strips*win.kc)
				want := make([]float32, strips*win.kc)
				conv.pack(win.kp, win.kc, win.jp, win.nc, got)
				plain.pack(win.kp, win.kc, win.jp, win.nc, want)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("window %+v: packed[%d] = %g, want %g", win, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestQuantizeSpanAsmParity: the AVX2 activation-quantization kernel
// is byte-exact against the scalar math.Round loop — the lane math is
// the same float64 arithmetic, and the trunc/bump decomposition of
// round-half-away-from-zero is exact (see quant_avx2_amd64.s). The
// sweep covers ragged tails, exact .5 boundaries where a one-ulp
// rounding difference would flip the code, and values beyond the
// int8 clamp on both sides.
func TestQuantizeSpanAsmParity(t *testing.T) {
	if !asmQuantOK {
		t.Skip("quantize kernel not available on this host")
	}
	quantScalarRef := func(dst []int8, src []float32, inv, zero float64) {
		for i := range src {
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
	cases := []struct {
		name      string
		inv, zero float64
	}{
		{"unit", 1, 0},
		{"relu6ish", 255.0 / 6.0, -128},
		{"symmetric", 17.37, 0},
		{"offset", 3.25, 11},
		{"tiny_scale", 1e-3, -4},
	}
	for _, tc := range cases {
		for _, n := range []int{1, 7, 8, 9, 15, 16, 33, 1000, 1003} {
			src := make([]float32, n)
			rng := rand.New(rand.NewSource(int64(n)*31 + 7))
			for i := range src {
				switch i % 5 {
				case 0: // exact half-integer products under inv=1
					src[i] = float32(i%300) - 150 + 0.5
				case 1: // far beyond the clamp
					src[i] = (rng.Float32() - 0.5) * 1e6
				case 2:
					src[i] = 0
				default:
					src[i] = (rng.Float32() - 0.5) * 20
				}
			}
			got := make([]int8, n)
			want := make([]int8, n)
			quantizeSpan(got, src, tc.inv, tc.zero, 0, n)
			quantScalarRef(want, src, tc.inv, tc.zero)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: element %d: asm %d, scalar %d (src=%v)",
						tc.name, n, i, got[i], want[i], src[i])
				}
			}
		}
	}
}
