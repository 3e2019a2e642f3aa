// Package core implements the paper's contribution: joint optimization
// of DNN partition and scheduling (JPS). It contains Algorithm 2 (the
// O(log k) binary search for the crossing layer l* and the two-type
// mix ratio of Theorem 5.3), the JPS planner, the comparison baselines
// PO / CO / LO, exact and two-point brute-force optima (Fig. 11), the
// continuous-relaxation solver of Theorem 5.2, and the Algorithm 3
// planner for general-structure DNNs.
package core

import (
	"fmt"
	"math"
	"slices"

	"dnnjps/internal/flowshop"
	"dnnjps/internal/profile"
)

// CutSearch is the result of Algorithm 2 on a (Pareto-restricted)
// curve: LStar is the leftmost position with f(l) >= g(l); Ratio is
// ⌊(f(l*)-g(l*)) / (g(l*-1)-f(l*-1))⌋, the number of jobs to cut at
// l*-1 for every job cut at l*.
type CutSearch struct {
	LStar int
	Ratio int
	// Exact reports f(l*) == g(l*): a single partition type is optimal
	// (the discrete curve realizes the continuous optimum of Thm 5.2).
	Exact bool
	// Steps counts binary-search iterations, validating O(log k).
	Steps int
}

// BinarySearchCut runs Algorithm 2 on a curve whose G is
// non-increasing (restrict to ParetoCuts first for raw curves). It
// requires f(0) < g(0), which holds for any real model: f(0) = 0 and
// g(0) is the raw input upload. The loop maintains the paper's
// invariant f(l-1) < g(l-1) ∧ f(r) >= g(r).
func BinarySearchCut(c *profile.Curve) (CutSearch, error) {
	return crossing{c: c}.binarySearch()
}

// binarySearch is BinarySearchCut on x's positions.
func (x crossing) binarySearch() (CutSearch, error) {
	k := len(x.idx)
	if x.idx == nil {
		k = x.c.Len()
	}
	if k < 2 {
		return CutSearch{}, fmt.Errorf("core: curve too short (%d positions)", k)
	}
	if x.f(0) >= x.g(0) {
		// Degenerate: offloading immediately is already compute-bound;
		// l* = 0 means every job is cut at the first position.
		return CutSearch{LStar: 0, Exact: x.f(0) == x.g(0)}, nil
	}
	l, r := 1, k-1
	steps := 0
	for l < r {
		steps++
		mid := (l + r) / 2
		if x.f(mid) < x.g(mid) {
			l = mid + 1
		} else {
			r = mid
		}
	}
	res := CutSearch{LStar: l, Steps: steps}
	if x.f(l) == x.g(l) {
		res.Exact = true
		return res, nil
	}
	den := x.g(l-1) - x.f(l-1)
	if den <= 0 {
		// Cannot happen when the invariant holds; guard against
		// curves violating monotonicity assumptions.
		return res, fmt.Errorf("core: invariant violated at l*=%d: g(l*-1)-f(l*-1)=%g", l, den)
	}
	res.Ratio = int(math.Floor((x.f(l) - x.g(l)) / den))
	return res, nil
}

// MixCounts converts the Theorem 5.3 ratio into job counts: m jobs at
// l*-1 and n-m at l*, with m : (n-m) = ratio : 1 (rounded down, then
// clamped to [0, n]). This is the paper's literal integer-ratio rule;
// it degrades badly when the true ratio is below 1 (the floor sends
// every job to l*), so JPS uses BalancedSplit instead and this rule is
// kept for the JPSPaperRatio ablation.
func MixCounts(n, ratio int) (atPrev, atLStar int) {
	if n <= 0 {
		return 0, 0
	}
	if ratio <= 0 {
		return 0, n
	}
	m := n * ratio / (ratio + 1)
	if m > n {
		m = n
	}
	return m, n - m
}

// BalancedSplit solves the exact Theorem 5.3 balance condition
// m·(g(l*-1) − f(l*-1)) = (n−m)·(f(l*) − g(l*)) for the real-valued m
// and returns the two adjacent integer candidates (clamped to [0, n]).
// The caller evaluates both and keeps the better makespan — an O(1)
// refinement of the paper's floored ratio.
func BalancedSplit(c *profile.Curve, lstar, n int) (lo, hi int) {
	return crossing{c: c}.balancedSplit(lstar, n)
}

// balancedSplit is BalancedSplit on x's positions.
func (x crossing) balancedSplit(lstar, n int) (lo, hi int) {
	surplusPrev := x.g(lstar-1) - x.f(lstar-1) // > 0 by the invariant
	surplusCur := x.f(lstar) - x.g(lstar)      // >= 0 at l*
	den := surplusPrev + surplusCur
	if den <= 0 {
		return 0, 0
	}
	m := float64(n) * surplusCur / den
	lo = int(math.Floor(m))
	hi = int(math.Ceil(m))
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// crossing is Algorithm 2's result on a raw curve c: the search runs
// over c's Pareto positions idx, read in place (position p is c's
// idx[p]; every position of c where idx is nil). Every planner that
// mixes cuts — JPS and its two ablations, PlanGeneral per path,
// JPSHetero per class, PlanStream per frame — starts here and asks the
// value, not the CutSearch, what to cut where.
type crossing struct {
	c      *profile.Curve
	idx    []int
	search CutSearch
}

// findCrossing is the one place Algorithm 2 runs on a raw curve.
func findCrossing(c *profile.Curve) (crossing, error) {
	x := crossing{c: c, idx: c.ParetoCuts()}
	var err error
	x.search, err = x.binarySearch()
	return x, err
}

// at is position p's index on the raw curve.
func (x crossing) at(p int) int {
	if x.idx == nil {
		return p
	}
	return x.idx[p]
}

// f and g are the curve's F and G at position p.
func (x crossing) f(p int) float64 { return x.c.F[x.at(p)] }
func (x crossing) g(p int) float64 { return x.c.G[x.at(p)] }

// SearchCurve is Algorithm 2 on a raw curve for callers that report the
// crossing rather than plan with it: the search on c's Pareto
// positions, and those positions as indices into c.
func SearchCurve(c *profile.Curve) (CutSearch, []int, error) {
	x, err := findCrossing(c)
	return x.search, x.idx, err
}

// mixes reports whether two cuts, l*-1 and l*, share the jobs; when
// f(l*) = g(l*) or l* = 0 every job is cut at l*.
func (x crossing) mixes() bool { return !x.search.Exact && x.search.LStar > 0 }

// pos is job j's search position when the first m jobs sit at l*-1.
func (x crossing) pos(j, m int) int {
	if j < m && x.mixes() {
		return x.search.LStar - 1
	}
	return x.search.LStar
}

// kinds returns the two raw cuts JPS mixes: a for the first m jobs
// (l*-1 where two cuts mix) and b for the rest (l*); both l* where
// nothing mixes.
func (x crossing) kinds() (a, b int) {
	return x.at(x.pos(0, 1)), x.at(x.search.LStar)
}

// cuts returns the n cuts on the raw curve for split m: the first m at
// l*-1 where two cuts mix, all n at l* where not.
func (x crossing) cuts(n, m int) []int {
	a, b := x.kinds()
	return mixCuts(n, m, a, b)
}

// flank returns the two integer splits on either side of the exact
// Theorem 5.3 balance point (0, 0 when nothing mixes).
func (x crossing) flank(n int) (lo, hi int) {
	if !x.mixes() {
		return 0, 0
	}
	return x.balancedSplit(x.search.LStar, n)
}

// splits lists the candidate splits s[:k] in the one order every
// planner tries them: the two flanking the balance point, the paper's
// floored-ratio split (so no planner can lose to the literal rule), and
// the two homogeneous extremes — duplicates dropped, first kept. The
// strict < of the callers keeps the first of equal makespans, so this
// order is the tie-break chain_golden_test.go, Fig. 11 and Table 1
// depend on. Just {0} when nothing mixes.
func (x crossing) splits(n int) (s [5]int, k int) {
	if !x.mixes() {
		return s, 1
	}
	lo, hi := x.flank(n)
	paper, _ := MixCounts(n, x.search.Ratio)
	for _, m := range [5]int{lo, hi, paper, 0, n} {
		if !slices.Contains(s[:k], m) {
			s[k] = m
			k++
		}
	}
	return s, k
}

// mixCuts cuts the first m of n jobs at a and the rest at b.
func mixCuts(n, m, a, b int) []int {
	cuts := make([]int, n)
	for i := range cuts {
		cuts[i] = b
		if i < m {
			cuts[i] = a
		}
	}
	return cuts
}

// mixSpan is the makespan of the plan planFromCuts makes of
// mixCuts(n, m, a, b), to the bit, priced without building it: the
// plan's jobs are two kinds, (F, G) at a and at b, numbered a's first,
// which flowshop.TwoKindMakespan sequences and runs as two blocks.
func mixSpan(c *profile.Curve, n, m, a, b int) float64 {
	return flowshop.TwoKindMakespan(flowshop.Job{A: c.F[a], B: c.G[a]}, m, flowshop.Job{A: c.F[b], B: c.G[b]}, n-m)
}

// eachMultiset visits every way to place n identical jobs on k >= 1
// positions — counts[i] jobs at position i — in lexicographic order of
// counts, and stops at the first error a visit returns. counts is the
// walk's own; a visit that keeps it copies it.
func eachMultiset(n, k int, visit func(counts []int) error) error {
	counts := make([]int, k)
	var rec func(pos, remaining int) error
	rec = func(pos, remaining int) error {
		if pos == k-1 {
			counts[pos] = remaining
			return visit(counts)
		}
		for take := 0; take <= remaining; take++ {
			counts[pos] = take
			if err := rec(pos+1, remaining-take); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, n)
}

// multisetCount is the number of visits eachMultiset(n, k) makes,
// C(n+k-1, k-1), in float64 so that sizing a search cannot overflow.
func multisetCount(n, k int) float64 {
	v := 1.0
	for i := 1; i <= k-1; i++ {
		v *= float64(n+i) / float64(i)
	}
	return v
}

// JobsForCuts builds the flow-shop jobs for per-job cut indices on a
// curve.
func JobsForCuts(c *profile.Curve, cuts []int) []flowshop.Job {
	jobs := make([]flowshop.Job, len(cuts))
	for i, cut := range cuts {
		if cut < 0 || cut >= c.Len() {
			panic(fmt.Sprintf("core: cut %d out of range [0,%d)", cut, c.Len()))
		}
		jobs[i] = flowshop.Job{ID: i, A: c.F[cut], B: c.G[cut]}
	}
	return jobs
}
