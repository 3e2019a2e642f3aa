package engine

import "sync"

// Driver for the hand-written SIMD microkernels: kernelAsm, and the
// kernelGEMM choice for every shape the tile can fill when the CPU
// supports them (useAsm below is the whole routing policy) — see
// gemm_asm_amd64.go for the tiles and gemm_asm_off.go for the disabled
// build (noasm, and every GOARCH other than amd64).
//
// The loop nest is jp → kp → i0 → j0: columns of B in asmNC-wide
// blocks, K in panels as deep as the pack buffer holds at the block's
// width (asmKC at least, see sgemmAsmCols), then every strip of A —
// as many rows as the live tile has (asmTileRows: 12 for the AVX-512
// tile, 6 for the AVX2 one, asmMR at most) — sweeps the block's
// asmNR-column strips. Only B is repacked:
//
//	bPacker:  columns in strips of asmNR — b[kk][j0+c] at
//	          strip[kk*asmNR + c], zero-padded to full width.
//
// A is the layer's weight matrix — a constant — and is read where Load
// put it: the tile takes the strip's first element and the row stride
// lda and broadcasts a[r*lda+kk] itself, so no copy of any weight is
// made per call (re-laying them out k-major cost ∝ m·k against
// arithmetic ∝ m·k·n, 38–43 % of a MobileNet 7×7 pointwise GEMM). Only
// the last partial strip (m mod the strip height rows) is copied, into
// a zeroed stack scratch (asmSweepRagged), so the tile never reads a
// row that does not exist.
// Before each strip the driver takes the Go slice spanning everything
// the tile will dereference — a bad shape panics instead of reading
// wild memory.
//
// Two things set the driver apart from the panel loop beyond that.
// First, B packing is *source-pluggable*: a bPacker either reads a
// plain row-major matrix or synthesizes patch-matrix windows straight
// from a conv input tensor (fused im2col — the kSize x bt·hw column
// buffer that conv2dGEMM materializes for the panel loop never exists
// on this path). Each patch row of a K panel is lowered across the
// whole column block in one call of im2colRow, the lowering the
// materialized path runs too, into a row in pack's frame, which is then
// laid into the strips 16 floats at a time; the block's window may
// start mid-image and span the image seams of a packed batch.
// Second, the tile uses FMA: one rounding per multiply-add instead of
// two. Accumulation still visits k in ascending order with a single
// accumulator per C element, but float32 results differ from the
// pure-Go kernels in rounding. Parity tests bound the difference
// (see asm_parity_test.go); the relative error of a length-k dot
// product differs by at most k ulps between the fused and unfused
// evaluations, in practice ~1e-7 relative for the shapes here.
//
// Edge tiles: rather than a scalar tail loop (which would mix FMA and
// non-FMA arithmetic inside one matrix), partial tiles run the full
// asm tile against a stack scratch patch. Valid C elements are copied
// in, accumulated by the tile (zero-padded A rows / B columns
// contribute exact zeros to live lanes, and SIMD lanes are
// independent), and copied back; dead lanes accumulate garbage that is
// never read. Every output element therefore takes the same FMA
// instruction sequence regardless of its tile position — which also
// keeps batched and single-image conv outputs bit-identical to each
// other under asm, since batching only relocates an element's column.

// packFree is a free list of pack blocks of one size, one block per
// in-flight worker. No P owns it: a sync.Pool Put lands in the putting
// P's private slot, where a forward that migrated to another P could
// not find it and allocated a fresh block (1 MiB for asmPackBufsB,
// 448 KiB for the int8 pair). It holds no more blocks than were once in
// use at the same time. That can exceed GOMAXPROCS — a GEMM preempted
// mid-call keeps its block — so it has no cap: capped there, a
// loopback client and server re-allocated about 1 MiB per 8 jobs.
type packFree[T any] struct {
	mu   sync.Mutex
	size int
	free [][]T
}

func (f *packFree[T]) get() (b []T) {
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		b, f.free = f.free[n-1], f.free[:n-1]
	}
	f.mu.Unlock()
	if b == nil {
		b = make([]T, f.size)
	}
	return b
}

func (f *packFree[T]) put(b []T) {
	f.mu.Lock()
	f.free = append(f.free, b)
	f.mu.Unlock()
}

// asmPackBufsB holds the packed B blocks of the float32 GEMM.
var asmPackBufsB = packFree[float32]{size: asmKC * asmNC}

// asmAVX512OK reports whether sgemmAsm runs the AVX-512 12x16 tile
// rather than the AVX2 6x16 one (probed at init on amd64, beside
// asmOK; false on every other build). The two are bit-identical;
// it is a variable so the tests can pin the AVX2 tile and compare.
var asmAVX512OK bool

// useAsm is the GEMM routing rule, shared by sgemmAcc and the fused
// conv paths: the assembly driver runs when the CPU has it and the
// weights are a shape the tile can fill (kernelGEMM, the engine's own
// choice) or a parity test pinned kernelAsm. Everything else — and
// kernelAsm on a host or build without the kernels — takes the panel
// loop. The rule reads A's shape only: how many jobs share a pass never
// changes a GEMM's driver.
func useAsm(kern kernelPath, m, k int) bool {
	return asmOK && (kern == kernelAsm || (kern == kernelGEMM && preferAsm(m, k)))
}

// preferAsm is the tile guard: a full strip of rows and enough k steps
// to amortize packing B. It is the whole auto policy —
// BenchmarkSgemmCrossover (m=256, k=1152) has the AVX2 tile ahead of
// the panel loop at every swept width, 2.7x at n=16 to ~9x at n=1024,
// and a shallow sweep holds the win down to a single 6x16 tile at k=16
// (6.2 vs 3.0 MAC/ns), so no working-set threshold sits on top of the
// structural floor. The row floor is the tallest strip, asmMR (12 on
// amd64 whichever tile the CPU has, so the route does not depend on the
// host): below it every row would go through the ragged strip's scratch
// copy, and no zoo layer is that narrow (the fewest output channels of
// any conv or dense layer is 16). There is no column floor: the tile
// reads A in place, so a GEMM narrower than a strip costs one sweep of
// the weights whatever n is — one job's fc6 ≈ 17.0 ms against 22.6 on
// the pure-Go matrix-vector loop (medians), 2 to 16 jobs on the
// 1000×1280 head ≈ 0.5 ms against 1.7–6.6 on the panel loop, and 32
// (two strips) 0.415 ms against 18–24 (2-vCPU Xeon; tables in
// EXPERIMENTS.md).
func preferAsm(m, k int) bool {
	return m >= asmMR && k >= 8
}

// bPacker produces packed B strips for the asm driver. Plain mode
// (conv == false) reads a row-major matrix; conv mode synthesizes
// im2col windows directly from the input tensor, never materializing
// the patch matrix. It is passed by value so the parallel column split
// can hand each worker a copy without heap traffic on the serial path.
type bPacker struct {
	// Plain mode: row-major matrix b with row stride ldb.
	b   []float32
	ldb int

	// Conv mode (fused im2col).
	conv               bool
	src                []float32 // input tensor, packed batch-n layout
	inH, inW           int
	kh, kw             int
	stride, padH, padW int
	outW               int
	cLo                int // first input channel of the group
	n                  int // packed batch width (1 = single image)
	hw                 int // patch columns per image = outH*outW
}

// pack fills dst with the asmNR-column strips covering columns
// [jp, jp+nc) of rows [kp, kp+kc) of the (virtual) B matrix, padding
// the last strip with zeros to full width. nc is at most asmNC: one
// column block of the driver.
func (p bPacker) pack(kp, kc, jp, nc int, dst []float32) {
	if !p.conv {
		p.packPlain(kp, kc, jp, nc, dst)
		return
	}
	// Row kp+kk of the patch matrix is kernel offset (r, s) of input
	// channel ci; walk the decomposition incrementally. Each row is
	// lowered over all nc columns in one walk, then laid into the
	// strips; buf past nc is never written, so it pads the last strip.
	var buf [asmNC + asmNR]float32
	khw := p.kh * p.kw
	ci, rs := kp/khw, kp%khw
	for kk := 0; kk < kc; kk++ {
		im2colRow(p.src, buf[:nc], 0, (p.cLo+ci)*p.n*p.inH*p.inW, rs/p.kw, rs%p.kw,
			p.inH, p.inW, p.stride, p.padH, p.padW, p.hw/p.outW, p.outW, jp)
		for j0 := 0; j0 < nc; j0 += asmNR {
			copy(dst[j0*kc+kk*asmNR:j0*kc+kk*asmNR+asmNR], buf[j0:j0+asmNR])
		}
		if rs++; rs == khw {
			rs, ci = 0, ci+1
		}
	}
}

// packPlain is the matrix-source strip packer.
func (p bPacker) packPlain(kp, kc, jp, nc int, dst []float32) {
	nFull := nc - nc%asmNR
	for j0 := 0; j0 < nFull; j0 += asmNR {
		d := dst[j0*kc : j0*kc+kc*asmNR]
		si := (kp)*p.ldb + jp + j0
		for kk := 0; kk < kc; kk++ {
			copy(d[kk*asmNR:kk*asmNR+asmNR], p.b[si:si+asmNR])
			si += p.ldb
		}
	}
	if cc := nc - nFull; cc > 0 {
		d := dst[nFull*kc:]
		si := (kp)*p.ldb + jp + nFull
		for kk := 0; kk < kc; kk++ {
			di := kk * asmNR
			copy(d[di:di+cc], p.b[si:si+cc])
			for i := cc; i < asmNR; i++ {
				d[di+i] = 0
			}
			si += p.ldb
		}
	}
}

// sgemmAsm computes C += A·B with the assembly microkernel. a is
// row-major with row stride lda ≥ k; pk supplies B — a plain matrix or
// a fused conv source. ldc is the row stride of C. Workers split the
// columns of C where each can take two strips of them, else the rows
// of A and C in whole strips of the live tile. Each output element is
// written by exactly one worker, and its FMA accumulation order is
// independent of the split.
func sgemmAsm(m, k, n, lda, ldc int, a []float32, pk bPacker, c []float32, workers int) {
	if workers > 1 && (n >= 4*asmNR || m > asmTileRows()) {
		sgemmAsmParallel(m, k, n, lda, ldc, a, pk, c, workers)
		return
	}
	sgemmAsmCols(m, k, 0, n, lda, ldc, a, pk, c)
}

// sgemmAsmParallel is the goroutine fan-out, kept out of sgemmAsm so
// the closure's by-reference capture of pk (the struct is past the
// compiler's by-value capture size) only heap-moves it on calls that
// actually spawn — the serial path stays allocation-free.
func sgemmAsmParallel(m, k, n, lda, ldc int, a []float32, pk bPacker, c []float32, workers int) {
	rows, cols := m, n
	if w := n / (2 * asmNR); w >= 2 {
		w = min(workers, w)
		cols = ((n+w-1)/w + asmNR - 1) / asmNR * asmNR
	} else {
		mr := asmTileRows()
		strips := (m + mr - 1) / mr
		w := min(workers, strips)
		rows = (strips + w - 1) / w * mr
	}
	var wg sync.WaitGroup
	for i0 := 0; i0 < m; i0 += rows {
		for lo := 0; lo < n; lo += cols {
			wg.Add(1)
			go func(i0, lo int) {
				defer wg.Done()
				sgemmAsmCols(min(rows, m-i0), k, lo, min(lo+cols, n), lda, ldc, a[i0*lda:], pk, c[i0*ldc:])
			}(i0, lo)
		}
	}
	wg.Wait()
}

// sgemmAsmCols runs the blocked driver over columns [nLo, nHi). Each
// column block takes K in panels as deep as the pack buffer holds at the
// block's width (rounded up to whole strips), in multiples of asmKC and
// never shallower than asmKC — so a narrow block reads each strip of A in
// few long runs (asmKC panels touch 1 KiB of every fc6 row per sweep):
// 16 384 deep at one strip, 8 192 at two (the 32-job dense head), 1 280
// at 169 columns, and asmKC for every block wider than 512. The panel
// depth changes no bits: each C element is one FMA chain in ascending k,
// stored and reloaded exactly between panels.
func sgemmAsmCols(m, k, nLo, nHi, lda, ldc int, a []float32, pk bPacker, c []float32) {
	pB := asmPackBufsB.get()
	mr := asmTileRows()
	mFull := m - m%mr
	for jp := nLo; jp < nHi; jp += asmNC {
		nc := min(asmNC, nHi-jp)
		w := (nc + asmNR - 1) / asmNR * asmNR
		kcMax := max(asmKC, len(pB)/w/asmKC*asmKC)
		for kp := 0; kp < k; kp += kcMax {
			kc := min(kcMax, k-kp)
			pk.pack(kp, kc, jp, nc, pB)
			for i0 := 0; i0 < mFull; i0 += mr {
				// Everything the tile dereferences of A, as one
				// bounds-checked slice: mr rows of kc floats.
				sa := a[i0*lda+kp : (i0+mr-1)*lda+kp+kc]
				asmSweepStrip(kc, kc, mr, mr, nc, sa, lda, pB, c, i0*ldc+jp, ldc)
			}
			if mFull < m {
				asmSweepRagged(kc, mr, m-mFull, nc, a[mFull*lda+kp:], lda, pB, c, mFull*ldc+jp, ldc)
			}
		}
	}
	asmPackBufsB.put(pB)
}

// asmSweepRagged runs the last m mod mr rows of A (rr of them, lda
// apart, kb floats each) against a packed block kb deep, asmKC steps at
// a time through a zeroed asmMR x asmKC scratch swept with lda = asmKC,
// so the tile never reads a row that does not exist. The scratch lives
// in this frame, not the driver's: only a ragged m pays for zeroing it,
// once per K panel.
func asmSweepRagged(kb, mr, rr, nc int, a []float32, lda int, pB, c []float32, cBase, ldc int) {
	var edge [asmMR * asmKC]float32
	for kp := 0; kp < kb; kp += asmKC {
		kc := min(asmKC, kb-kp)
		for r := 0; r < rr; r++ {
			copy(edge[r*asmKC:r*asmKC+kc], a[r*lda+kp:r*lda+kp+kc])
		}
		asmSweepStrip(kb, kc, mr, rr, nc, edge[:], asmKC, pB[kp*asmNR:], c, cBase, ldc)
	}
}

// asmSweepStrip accumulates kc steps of one strip of A (mr rows, lda
// apart, rr of them live) against every asmNR-column strip of the
// packed block pB (nc columns, kb deep) into the rows of C starting at
// c[cBase].
func asmSweepStrip(kb, kc, mr, rr, nc int, sa []float32, lda int, pB, c []float32, cBase, ldc int) {
	var tmp [asmMR * asmNR]float32
	for j0 := 0; j0 < nc; j0 += asmNR {
		cc := min(asmNR, nc-j0)
		if rr == mr && cc == asmNR {
			asmSgemmTile(kc, mr, sa, lda, pB[j0*kb:], c, cBase+j0, ldc)
			continue
		}
		// Edge tile through the scratch patch.
		for r := 0; r < rr; r++ {
			copy(tmp[r*asmNR:r*asmNR+cc], c[cBase+j0+r*ldc:])
		}
		asmSgemmTile(kc, mr, sa, lda, pB[j0*kb:], tmp[:], 0, asmNR)
		for r := 0; r < rr; r++ {
			copy(c[cBase+j0+r*ldc:cBase+j0+r*ldc+cc], tmp[r*asmNR:r*asmNR+cc])
		}
	}
}
