package core

import (
	"fmt"

	"dnnjps/internal/profile"
)

// ErrSearchSpaceTooLarge is returned when an exhaustive search would
// exceed the caller's combination budget.
var ErrSearchSpaceTooLarge = fmt.Errorf("core: brute-force search space too large")

// BruteForce finds the exact optimal joint plan by enumerating every
// multiset of cuts of size n over the Pareto candidates and scheduling
// each with Johnson's rule (which is makespan-optimal for fixed
// partitions, so multiset enumeration loses nothing: jobs are
// identical and only how many take each cut matters — this is the BF
// reference of Fig. 11). maxCombos bounds the number of multisets
// visited (0 means 2_000_000).
func BruteForce(c *profile.Curve, n, maxCombos int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: BruteForce needs n >= 1, got %d", n)
	}
	if maxCombos <= 0 {
		maxCombos = 2_000_000
	}
	idx := c.ParetoCuts() // Pareto position -> curve position
	k := len(idx)
	if multisetCount(n, k) > float64(maxCombos) {
		return nil, fmt.Errorf("%w: C(%d+%d-1,%d) > %d", ErrSearchSpaceTooLarge, n, k, n, maxCombos)
	}
	var best *Plan
	visited := 0
	// counts[i] = jobs cut at Pareto position i
	err := eachMultiset(n, k, func(counts []int) error {
		if visited++; visited > maxCombos {
			return ErrSearchSpaceTooLarge
		}
		if p := planFromCuts("BF", c, cutsFromCounts(counts, idx, n)); best == nil || p.Makespan < best.Makespan {
			best = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return best, nil
}

func cutsFromCounts(counts, idx []int, n int) []int {
	cuts := make([]int, 0, n)
	for pos, cnt := range counts {
		for j := 0; j < cnt; j++ {
			cuts = append(cuts, idx[pos])
		}
	}
	return cuts
}

// BruteForceTwoPoint searches only plans using at most two distinct
// cut positions (all pairs × all splits) over the Pareto candidates.
// By Theorem 5.3 this captures the optimum whenever two partition
// types suffice, and it stays polynomial — O(k²·n) schedules — so
// Fig. 11 can run it at n = 2⁹ where full BF is infeasible.
func BruteForceTwoPoint(c *profile.Curve, n int) (*Plan, error) {
	return TwoPointSearch(c, n, c.ParetoCuts())
}

// TwoPointSearch is BruteForceTwoPoint over an explicit candidate cut
// set — the virtual-block ablation uses it to search the raw,
// unclustered position set. Each candidate is priced in place
// (mixSpan, O(n), no allocation); only the winner is built.
func TwoPointSearch(c *profile.Curve, n int, candidates []int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: TwoPointSearch needs n >= 1, got %d", n)
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: TwoPointSearch needs candidates")
	}
	for _, cut := range candidates {
		if cut < 0 || cut >= c.Len() {
			return nil, fmt.Errorf("core: TwoPointSearch candidate %d outside [0,%d)", cut, c.Len())
		}
	}
	// The winning split puts the first m of n jobs at a, the rest at b.
	// It starts as the first candidate's homogeneous plan, which the
	// walk prices again and, by the strict <, keeps.
	m, a, b := n, candidates[0], candidates[0]
	span := mixSpan(c, n, m, a, b)
	consider := func(mi, ai, bi int) {
		if s := mixSpan(c, n, mi, ai, bi); s < span {
			m, a, b, span = mi, ai, bi, s
		}
	}
	for i, ai := range candidates {
		consider(n, ai, ai) // homogeneous plan at candidate i
		for _, bi := range candidates[i+1:] {
			for mi := 1; mi < n; mi++ {
				consider(mi, ai, bi)
			}
		}
	}
	return planFromCuts("BF-2pt", c, mixCuts(n, m, a, b)), nil
}
