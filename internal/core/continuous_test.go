package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// segmentSolve is Theorem 5.2 by a scan: the first Pareto position p
// where f − g stops being negative, and the point on the segment
// (p−1, p) where the linear f and g meet. ok is false where f − g has
// no sign change: fewer than two positions, f > g already at the first
// position, or f < g still at the last.
func segmentSolve(c *profile.Curve) (x, bound float64, ok bool) {
	idx := c.ParetoCuts()
	if len(idx) < 2 {
		return 0, 0, false
	}
	d := func(p int) float64 { return c.F[idx[p]] - c.G[idx[p]] }
	for p := range idx {
		switch {
		case d(p) < 0:
			continue
		case d(p) == 0:
			return float64(p), c.F[idx[p]], true
		case p == 0:
			return 0, 0, false
		}
		a, b := idx[p-1], idx[p]
		t := -d(p-1) / (d(p) - d(p-1))
		f := c.F[a] + t*(c.F[b]-c.F[a])
		g := c.G[a] + t*(c.G[b]-c.G[a])
		return float64(p-1) + t, max(f, g), true
	}
	return 0, 0, false
}

// continuousCases are the curves SolveContinuous is held to: the zoo on
// five channels in both dtypes, 5 000 synthetic §3.2 curves, and the
// five edge curves of its error rule.
func continuousCases(t *testing.T) map[string]*profile.Curve {
	t.Helper()
	cases := map[string]*profile.Curve{}
	chans := append(netsim.Presets(), netsim.At(0.3), netsim.At(200))
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		for _, ch := range chans {
			for _, dt := range []tensor.DType{tensor.Float32, tensor.Int8} {
				cases[fmt.Sprintf("%s/%s/%v", name, ch.Name, dt)] = profile.BuildCurve(g, profile.RaspberryPi4(), profile.CloudGPU(), ch, dt)
			}
		}
	}
	rng := rand.New(rand.NewSource(5902))
	for i := 0; i < 5000; i++ {
		cases[fmt.Sprintf("synth%d", i)] = synthCurve(rng, 2+rng.Intn(20))
	}
	edge := func(f, g []float64, bytes []int) *profile.Curve {
		return &profile.Curve{Model: "edge", F: f, G: g, CloudMs: make([]float64, len(f)), Bytes: bytes, Labels: make([]string, len(f))}
	}
	cases["edge/one position"] = edge([]float64{0}, []float64{0}, []int{0})
	cases["edge/f(0)>g(0)"] = edge([]float64{5, 6, 7}, []float64{3, 2, 0}, []int{30, 20, 0})
	cases["edge/f(0)=g(0)"] = edge([]float64{3, 6, 7}, []float64{3, 2, 0}, []int{30, 20, 0})
	cases["edge/f(last)<g(last)"] = edge([]float64{0, 1, 2}, []float64{10, 8, 5}, []int{10, 8, 5})
	cases["edge/f(last)=g(last)"] = edge([]float64{0, 1, 5}, []float64{10, 8, 5}, []int{10, 8, 5})
	return cases
}

// SolveContinuous is the crossing on the one Pareto segment where f − g
// changes sign: it errors exactly where the scan finds none, and its x*
// and bound are the scan's to 1e-9 relative.
func TestSolveContinuousMatchesSegmentSolve(t *testing.T) {
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*max(1, math.Abs(a), math.Abs(b))
	}
	solved := 0
	for name, c := range continuousCases(t) {
		x, bound, ok := segmentSolve(c)
		s, err := SolveContinuous(c)
		if (err == nil) != ok {
			t.Errorf("%s: SolveContinuous err = %v, scan finds a crossing = %v", name, err, ok)
			continue
		}
		if !ok {
			continue
		}
		solved++
		if !near(s.XStar, x) || !near(s.AvgMakespanBound(), bound) {
			t.Errorf("%s: x* = %.17g, bound %.17g; the scan solves x* = %.17g, bound %.17g", name, s.XStar, s.AvgMakespanBound(), x, bound)
		}
	}
	if solved < 5000 {
		t.Errorf("only %d curves have a crossing", solved)
	}
}
