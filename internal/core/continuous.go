package core

import (
	"fmt"

	"dnnjps/internal/profile"
)

// ContinuousSolution is the Theorem 5.2 optimum of the relaxed problem
// P2: the single real-valued cut position x* where the continuous
// extensions of f and g cross, shared by all n jobs.
type ContinuousSolution struct {
	XStar float64
	// FAtXStar = GAtXStar at the crossing: the average makespan
	// lim (max_j τ_j)/n of §4.2 of cutting every job at x*.
	FAtXStar float64
	GAtXStar float64
}

// AvgMakespanBound returns the relaxed optimum of the average
// makespan: max(f(x*), g(x*)), the crossing on the polyline through the
// Pareto positions. It bounds what any discrete plan can achieve
// asymptotically only where that polyline is convex: elsewhere a mix of
// two Pareto cuts that are not neighbours runs below it.
func (s ContinuousSolution) AvgMakespanBound() float64 {
	return max(s.FAtXStar, s.GAtXStar)
}

// SolveContinuous relaxes the curve to the polyline through its Pareto
// positions and returns where f and g cross on it. Along those positions
// f rises and g falls, so the crossing lies on Algorithm 2's segment
// (l*−1, l*), at the fraction that balances the two surpluses. Per
// Theorem 5.2, cutting all jobs at x* is optimal for the relaxed
// problem.
func SolveContinuous(c *profile.Curve) (ContinuousSolution, error) {
	x, err := findCrossing(c)
	if err != nil {
		return ContinuousSolution{}, err
	}
	l := x.search.LStar
	if x.search.Exact {
		return ContinuousSolution{XStar: float64(l), FAtXStar: x.f(l), GAtXStar: x.g(l)}, nil
	}
	if l == 0 || x.f(l) < x.g(l) {
		return ContinuousSolution{}, fmt.Errorf("core: f and g do not cross on the %d Pareto positions", len(x.idx))
	}
	prev, cur := x.surpluses(l)
	t := prev / (prev + cur)
	return ContinuousSolution{
		XStar:    float64(l-1) + t,
		FAtXStar: x.f(l-1) + t*(x.f(l)-x.f(l-1)),
		GAtXStar: x.g(l-1) + t*(x.g(l)-x.g(l-1)),
	}, nil
}
