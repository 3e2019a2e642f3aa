package engine

import "sync"

// Packed driver for the int8 assembly kernels (amd64 only for now —
// see asmOK). Operands are sign-extended to int16 at pack time
// and laid out k-pair-interleaved so the tile's VPMADDWD consumes
// (k, k+1) pairs directly:
//
//	packQA: 4-row strips — a[i0+r][kp+2p+d] at strip[p*8 + r*2 + d]
//	packQB: 16-col strips — b[kp+2p+d][j0+c] at strip[p*32 + c*2 + d]
//
// Odd k panels and partial strips pad with zero codes, which
// contribute exactly zero to the int32 sums; integer addition is
// associative, so this driver is bit-identical to the scalar int8
// kernels at every shape and worker count — no tolerance needed,
// unlike the float32 asm path.

const (
	// K elements per packed panel (256 pairs): one packed B strip is
	// 16 KiB of int16, L1-resident against the A strips.
	qasmKC = 512
	qasmNC = 256 // multiple of asmQNR
	qasmMC = 192 // multiple of asmQMR
)

// The int8 GEMM's packed A and B blocks (see packFree).
var (
	asmPackBufsQA = packFree[int16]{size: qasmMC * qasmKC}
	asmPackBufsQB = packFree[int16]{size: qasmKC * qasmNC}
)

// qgemmAsm computes C (int32, m×n) = A (int8, m×k) · B (int8, k×n),
// overwriting C — the same contract as qgemmAcc, which dispatches
// here when the CPU supports the int8 tile.
func qgemmAsm(m, k, n int, a, b []int8, c []int32, workers int) {
	clear(c[:m*n])
	if w := n / (2 * asmQNR); workers > w {
		workers = w
	}
	if workers > 1 {
		cols := (n + workers - 1) / workers
		cols = (cols + asmQNR - 1) / asmQNR * asmQNR
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += cols {
			hi := min(lo+cols, n)
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				qgemmAsmCols(m, k, n, lo, hi, a, b, c)
			}(lo, hi)
		}
		wg.Wait()
		return
	}
	qgemmAsmCols(m, k, n, 0, n, a, b, c)
}

// qgemmAsmCols accumulates columns [nLo, nHi) of the int8 GEMM.
func qgemmAsmCols(m, k, n, nLo, nHi int, a, b []int8, c []int32) {
	pA, pB := asmPackBufsQA.get(), asmPackBufsQB.get()
	var tmp [asmQMR * asmQNR]int32
	for jp := nLo; jp < nHi; jp += qasmNC {
		nc := min(qasmNC, nHi-jp)
		ncPad := (nc + asmQNR - 1) / asmQNR * asmQNR
		for kp := 0; kp < k; kp += qasmKC {
			kc := min(qasmKC, k-kp)
			kcp := (kc + 1) / 2
			packQB(kp, kc, jp, nc, b, n, pB)
			for ip := 0; ip < m; ip += qasmMC {
				mc := min(qasmMC, m-ip)
				packQA(kc, mc, a[ip*k+kp:], k, pA)
				for i0 := 0; i0 < mc; i0 += asmQMR {
					pas := pA[i0*2*kcp:]
					rr := min(asmQMR, mc-i0)
					cBase := (ip+i0)*n + jp
					for j0 := 0; j0 < ncPad; j0 += asmQNR {
						cc := min(asmQNR, nc-j0)
						if rr == asmQMR && cc == asmQNR {
							asmQgemmTile(kcp, pas, pB[j0*2*kcp:], c, cBase+j0, n)
							continue
						}
						for r := 0; r < rr; r++ {
							copy(tmp[r*asmQNR:r*asmQNR+cc], c[cBase+j0+r*n:])
						}
						asmQgemmTile(kcp, pas, pB[j0*2*kcp:], tmp[:], 0, asmQNR)
						for r := 0; r < rr; r++ {
							copy(c[cBase+j0+r*n:cBase+j0+r*n+cc], tmp[r*asmQNR:r*asmQNR+cc])
						}
					}
				}
			}
		}
	}
	asmPackBufsQA.put(pA)
	asmPackBufsQB.put(pB)
}

// packQA packs an mc×kc block of A (row stride lda) into 4-row
// pair-interleaved int16 strips, zero-padding short strips and odd k.
func packQA(kc, mc int, a []int8, lda int, dst []int16) {
	kcp := (kc + 1) / 2
	pairs := kc / 2
	for i0 := 0; i0 < mc; i0 += asmQMR {
		d := dst[i0*2*kcp : i0*2*kcp+8*kcp]
		for r := 0; r < asmQMR; r++ {
			if i0+r >= mc {
				for p := 0; p < kcp; p++ {
					d[p*8+r*2] = 0
					d[p*8+r*2+1] = 0
				}
				continue
			}
			src := a[(i0+r)*lda : (i0+r)*lda+kc]
			for p := 0; p < pairs; p++ {
				d[p*8+r*2] = int16(src[2*p])
				d[p*8+r*2+1] = int16(src[2*p+1])
			}
			if pairs < kcp {
				d[pairs*8+r*2] = int16(src[kc-1])
				d[pairs*8+r*2+1] = 0
			}
		}
	}
}

// packQB packs columns [jp, jp+nc) of rows [kp, kp+kc) of B (row
// stride ldb) into 16-col pair-interleaved int16 strips.
func packQB(kp, kc, jp, nc int, b []int8, ldb int, dst []int16) {
	kcp := (kc + 1) / 2
	for j0 := 0; j0 < nc; j0 += asmQNR {
		w := min(asmQNR, nc-j0)
		d := dst[j0*2*kcp : j0*2*kcp+32*kcp]
		for p := 0; p < kcp; p++ {
			row0 := b[(kp+2*p)*ldb+jp+j0:]
			var row1 []int8
			if 2*p+1 < kc {
				row1 = b[(kp+2*p+1)*ldb+jp+j0:]
			}
			di := p * 32
			for cc := 0; cc < w; cc++ {
				d[di+2*cc] = int16(row0[cc])
				if row1 != nil {
					d[di+2*cc+1] = int16(row1[cc])
				} else {
					d[di+2*cc+1] = 0
				}
			}
			for cc := w; cc < asmQNR; cc++ {
				d[di+2*cc] = 0
				d[di+2*cc+1] = 0
			}
		}
	}
}

// qgemvAsmRows accumulates rows [lo, hi) of the int8 matrix-vector
// product via the SIMD dot kernel, finishing the sub-32 tail in Go —
// still exact, still bit-identical to qgemvRows.
func qgemvAsmRows(lo, hi, k int, a, x []int8, y []int32) {
	k32 := k &^ 31
	for i := lo; i < hi; i++ {
		row := a[i*k : i*k+k : i*k+k]
		var v int32
		if k32 > 0 {
			v = asmQdot(k32, row, x)
		}
		for j := k32; j < k; j++ {
			v += int32(row[j]) * int32(x[j])
		}
		y[i] = v
	}
}
