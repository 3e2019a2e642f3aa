package engine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"dnnjps/internal/tensor"
)

// softmaxClass is the reference SoftmaxArgmaxBatch must equal: the
// softmax op over the whole packed batch, then ArgmaxBatch.
func softmaxClass(logits *tensor.Tensor, n, b int) int {
	return ArgmaxBatch(softmax(nil, logits, n), n, b)
}

// clearWinner reports whether column b has the margin the fast path
// needs, restated from the contract rather than from the code: every
// logit finite, and every one but the first maximum at least 2^-19
// below it in float32.
func clearWinner(data []float32, n, b int) bool {
	first := -1
	for i := b; i < len(data); i += n {
		v := float64(data[i])
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		if first < 0 || data[i] > data[first] {
			first = i
		}
	}
	for i := b; i < len(data); i += n {
		if i != first && data[i]-data[first] > -0x1p-19 {
			return false
		}
	}
	return true
}

// checkSoftmaxArgmax compares every column of a packed batch-n vector
// with the reference, and holds a column with a clear winner to zero
// allocations.
func checkSoftmaxArgmax(t *testing.T, data []float32, n int) {
	t.Helper()
	logits := &tensor.Tensor{Shape: tensor.NewVec(len(data)), Data: data}
	for b := 0; b < n; b++ {
		got, want := SoftmaxArgmaxBatch(logits, n, b), softmaxClass(logits, n, b)
		if got != want {
			t.Fatalf("n=%d column %d %v: class %d, softmax then argmax says %d", n, b, column(data, n, b), got, want)
		}
		if clearWinner(data, n, b) {
			if allocs := testing.AllocsPerRun(3, func() { SoftmaxArgmaxBatch(logits, n, b) }); allocs != 0 {
				t.Fatalf("n=%d column %d: %.0f allocations on the fast path", n, b, allocs)
			}
		}
	}
}

// column is image b of a packed batch-n vector, for failure messages.
func column(data []float32, n, b int) []float32 {
	var col []float32
	for i := b; i < len(data); i += n {
		col = append(col, data[i])
	}
	return col
}

// adversarialColumn draws a column of f logits built to sit on the fast
// path's edges: random values, then a maximum shared exactly, or missed
// by a few ulps or by about the 2^-19 margin, at a random scale, with
// the odd NaN or infinity.
func adversarialColumn(rng *rand.Rand, f int) []float32 {
	scale := []float32{1e-6, 1e-3, 1, 10, 1e4}[rng.Intn(5)]
	col := make([]float32, f)
	for i := range col {
		col[i] = float32(rng.NormFloat64()) * scale
	}
	top := rng.Intn(f)
	for i := range col {
		if col[i] > col[top] {
			top = i
		}
	}
	other := rng.Intn(f)
	switch rng.Intn(7) {
	case 0: // exact tie
		col[other] = col[top]
	case 1: // a few ulps under the maximum
		col[other] = col[top]
		for k := rng.Intn(4); k >= 0; k-- {
			col[other] = math.Nextafter32(col[other], float32(math.Inf(-1)))
		}
	case 2: // about the margin under it, either side
		col[other] = col[top] - float32(0x1p-19*(0.5+rng.Float64()))
	case 3:
		col[other] = float32(math.NaN())
	case 4:
		col[other] = float32(math.Inf(2*rng.Intn(2) - 1))
	}
	return col
}

// TestSoftmaxArgmaxMatchesSoftmax holds the logits class to the
// softmax's on random and adversarial columns at batch widths 1 to 4,
// and on the columns whose answer the softmax decides by a rule rather
// than by a maximum: all NaN (class 0), all −Inf, +Inf ties.
func TestSoftmaxArgmaxMatchesSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 4000; trial++ {
		n, f := 1+rng.Intn(4), 1+rng.Intn(40)
		data := make([]float32, n*f)
		for b := 0; b < n; b++ {
			for i, v := range adversarialColumn(rng, f) {
				data[i*n+b] = v
			}
		}
		checkSoftmaxArgmax(t, data, n)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, col := range [][]float32{
		{nan, nan, nan},
		{-inf, -inf, -inf},
		{1, inf, inf},
		{-inf, 2, -inf},
		{3},
	} {
		checkSoftmaxArgmax(t, col, 1)
	}
}

// FuzzSoftmaxArgmax reads raw as little-endian float32 logits, packed
// batch-n (n = 1 + nb mod 64, trailing floats that fill no row
// dropped), and checks every column against the softmax and the fast
// path's zero allocations. The committed corpus holds exact ties,
// 1-ulp near-ties at 0, 1e-3, 10 and 1e4, NaN, ±Inf, all −Inf, f = 1,
// and n of 1, 2 and 32.
func FuzzSoftmaxArgmax(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, nb uint8) {
		n := 1 + int(nb)%64
		rows := len(raw) / 4 / n
		if rows == 0 || rows > 4096 {
			t.Skip()
		}
		data := make([]float32, rows*n)
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		checkSoftmaxArgmax(t, data, n)
	})
}

// BenchmarkSoftmaxArgmax times the classes of a 32-job tail group of
// 1000 logits each — the dense head's output on a batching server — as
// the logits class (logits) against the softmax op and ArgmaxBatch
// (softmax). ns/inference is per job.
func BenchmarkSoftmaxArgmax(b *testing.B) {
	const n, f = 32, 1000
	rng := rand.New(rand.NewSource(1))
	logits := tensor.New(tensor.NewVec(n * f))
	for i := range logits.Data {
		logits.Data[i] = float32(rng.NormFloat64()) * 3
	}
	perJob := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/inference")
	}
	b.Run("N=32/logits", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				SoftmaxArgmaxBatch(logits, n, j)
			}
		}
		perJob(b)
	})
	arena := tensor.NewArena()
	b.Run("N=32/softmax", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			probs := softmax(arena, logits, n)
			for j := 0; j < n; j++ {
				ArgmaxBatch(probs, n, j)
			}
			probs.Recycle()
		}
		perJob(b)
	})
}
