package regression

import (
	"fmt"
	"math"
	"sort"
)

// Interpolator is a piecewise-linear function through sample points.
// Outside the sampled range it extrapolates with the nearest segment's
// slope. Neither it nor CrossingPoint has a caller outside the tests
// that hold them: core.SolveContinuous solves Algorithm 2's segment in
// closed form.
type Interpolator struct {
	xs, ys []float64
}

// NewInterpolator builds an interpolator from samples; xs must be
// strictly increasing.
func NewInterpolator(xs, ys []float64) (*Interpolator, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return nil, fmt.Errorf("%w: need >=2 matched points", ErrDegenerate)
	}
	if !sort.Float64sAreSorted(xs) {
		return nil, fmt.Errorf("%w: xs not sorted", ErrDegenerate)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] == xs[i-1] {
			return nil, fmt.Errorf("%w: duplicate x=%g", ErrDegenerate, xs[i])
		}
	}
	return &Interpolator{
		xs: append([]float64(nil), xs...),
		ys: append([]float64(nil), ys...),
	}, nil
}

// Eval returns the interpolated value at x.
func (it *Interpolator) Eval(x float64) float64 {
	xs, ys := it.xs, it.ys
	n := len(xs)
	// Locate the segment; extrapolate with the boundary segments.
	i := sort.SearchFloat64s(xs, x)
	switch {
	case i <= 0:
		i = 1
	case i >= n:
		i = n - 1
	}
	x0, x1 := xs[i-1], xs[i]
	y0, y1 := ys[i-1], ys[i]
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// Domain returns the sampled x range.
func (it *Interpolator) Domain() (lo, hi float64) {
	return it.xs[0], it.xs[len(it.xs)-1]
}

// CrossingPoint finds x in [lo, hi] where fa(x) == fb(x), assuming
// fa-fb is monotone (non-increasing) over the interval — exactly the
// setting of Theorem 5.2 where f is increasing and g decreasing. It
// returns the bisection solution and true, or 0 and false when the
// difference does not change sign in the interval.
func CrossingPoint(fa, fb func(float64) float64, lo, hi float64) (float64, bool) {
	d := func(x float64) float64 { return fa(x) - fb(x) }
	dlo, dhi := d(lo), d(hi)
	if dlo == 0 {
		return lo, true
	}
	if dhi == 0 {
		return hi, true
	}
	if dlo*dhi > 0 {
		return 0, false
	}
	for i := 0; i < 200 && hi-lo > 1e-12*(1+math.Abs(hi)); i++ {
		mid := (lo + hi) / 2
		dm := d(mid)
		if dm == 0 {
			return mid, true
		}
		if dm*dlo < 0 {
			hi = mid
		} else {
			lo, dlo = mid, dm
		}
	}
	return (lo + hi) / 2, true
}
