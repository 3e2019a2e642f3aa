// Package flowshop implements the two-machine flow-shop scheduling
// theory of Section 4: after partitioning, every job is a pair of
// serial stages — mobile computation (stage A) then upload (stage B) —
// sharing one CPU and one uplink, pipelined across jobs. Johnson's
// rule gives the makespan-optimal permutation (Alg. 1); the package
// also provides the exact makespan recurrence, the closed form of
// Proposition 4.1, Gantt extraction and exhaustive sequencing for
// validation.
package flowshop

import (
	"cmp"
	"math"
	"slices"
)

// Job is one partitioned inference job: A is the computation-stage
// length f(P_j), B the communication-stage length g(P_j). ID is an
// opaque caller tag preserved by scheduling.
type Job struct {
	ID int
	A  float64
	B  float64
}

// CommHeavy reports whether the job belongs to the paper's
// communication-heavy set S1 (f < g).
func (j Job) CommHeavy() bool { return j.A < j.B }

// Johnson returns the makespan-optimal permutation per Johnson's rule
// (Alg. 1): the communication-heavy set S1 sorted by ascending A,
// followed by the computation-heavy set S2 sorted by descending B.
// Ties break by ID so schedules are deterministic. The input is not
// modified; the result is one allocation, S1 and S2 sorted in place. A
// set already in order is not sorted: one pass checks it, but only
// when no stage is NaN — a NaN compares before nothing and nothing
// before it, so the comparisons are no strict weak order, "in order"
// is not defined, and the stable sort's merge may still move jobs.
func Johnson(jobs []Job) []Job {
	heavy, nan := 0, false
	for _, j := range jobs {
		if j.CommHeavy() {
			heavy++
		}
		nan = nan || math.IsNaN(j.A) || math.IsNaN(j.B)
	}
	out := make([]Job, len(jobs))
	s1, s2 := out[:0:heavy], out[heavy:heavy]
	for _, j := range jobs {
		if j.CommHeavy() {
			s1 = append(s1, j)
		} else {
			s2 = append(s2, j)
		}
	}
	if nan || !slices.IsSortedFunc(s1, byA) {
		slices.SortStableFunc(s1, byA)
	}
	if nan || !slices.IsSortedFunc(s2, byB) {
		slices.SortStableFunc(s2, byB)
	}
	return out
}

// byA and byB are S1's and S2's orders as stable-sort comparators, < 0
// exactly where the rule's "before" holds: a NaN stage compares before
// nothing and nothing before it, which stability then resolves by input
// order.
func byA(a, b Job) int {
	if a.A != b.A {
		return before(a.A < b.A)
	}
	return cmp.Compare(a.ID, b.ID)
}

func byB(a, b Job) int {
	if a.B != b.B {
		return before(a.B > b.B)
	}
	return cmp.Compare(a.ID, b.ID)
}

// before is a stable sort's comparison result for "a goes first":
// -1 if it does, else 1.
func before(first bool) int {
	if first {
		return -1
	}
	return 1
}

// Makespan evaluates the exact two-machine flow-shop makespan of a
// sequence via the standard recurrence:
//
//	C1_j = C1_{j-1} + a_j
//	C2_j = max(C2_{j-1}, C1_j) + b_j
func Makespan(seq []Job) float64 {
	var c1, c2 float64
	for _, j := range seq {
		c1, c2 = advance(c1, c2, j)
	}
	return c2
}

// advance moves the recurrence's state past job j: the one copy of the
// step that Makespan, Completions and TwoKindMakespan run.
func advance(c1, c2 float64, j Job) (float64, float64) {
	c1 += j.A
	if c1 > c2 {
		c2 = c1
	}
	return c1, c2 + j.B
}

// TwoKindMakespan is Makespan(Johnson(jobs)) for jobs holding nx copies
// of x's stages followed by ny copies of y's, numbered in that order
// (the IDs of x and y are not read) — without the list or the sort.
// Every x precedes every y by ID, so Johnson's result is two blocks,
// ordered by the rule applied to x as job 0 and y as job 1: the
// communication-heavy kind first; when both are, y first only if its A
// is smaller; when neither is, y first only if its B is larger. A NaN
// compares false, so of two kinds in one set x stays first. The
// recurrence then runs over the blocks in that order, as Makespan would
// over the sequence.
func TwoKindMakespan(x Job, nx int, y Job, ny int) float64 {
	x.ID, y.ID = 0, 1
	if nx > 0 && ny > 0 && johnsonBefore(y, x) {
		x, nx, y, ny = y, ny, x, nx
	}
	var c1, c2 float64
	for range nx {
		c1, c2 = advance(c1, c2, x)
	}
	for range ny {
		c1, c2 = advance(c1, c2, y)
	}
	return c2
}

// johnsonBefore reports whether Johnson's rule puts a before b.
func johnsonBefore(a, b Job) bool {
	switch {
	case a.CommHeavy() != b.CommHeavy():
		return a.CommHeavy()
	case a.CommHeavy():
		return byA(a, b) < 0
	default:
		return byB(a, b) < 0
	}
}

// Completions returns each job's completion time (end of its B stage)
// in sequence order.
func Completions(seq []Job) []float64 {
	out := make([]float64, len(seq))
	var c1, c2 float64
	for i, j := range seq {
		c1, c2 = advance(c1, c2, j)
		out[i] = c2
	}
	return out
}

// FormulaMakespan evaluates the closed form of Proposition 4.1:
//
//	f(x_1) + max(Σ_{i≥2} f(x_i), Σ_{i≤n-1} g(x_i)) + g(x_n)
//
// The formula is exact when the sequence is Johnson-ordered AND the
// jobs are drawn from a common monotone cut curve (x_i ≤ x_j implies
// A_i ≤ A_j and B_i ≥ B_j) — the identical-DNN setting of the paper.
// For arbitrary job sets it is only a lower bound on Makespan (see
// TestFormulaIsOnlyALowerBoundInGeneral).
func FormulaMakespan(seq []Job) float64 {
	if len(seq) == 0 {
		return 0
	}
	var sumA, sumB float64
	for _, j := range seq {
		sumA += j.A
		sumB += j.B
	}
	first, last := seq[0], seq[len(seq)-1]
	inner := max(sumA-first.A, sumB-last.B)
	return first.A + inner + last.B
}

// Interval is one bar of a Gantt chart.
type Interval struct {
	JobID      int
	Start, End float64
}

// Gantt returns the computation-stage and communication-stage
// intervals of a sequence, in sequence order.
func Gantt(seq []Job) (comp, comm []Interval) {
	var c1, c2 float64
	for _, j := range seq {
		comp = append(comp, Interval{JobID: j.ID, Start: c1, End: c1 + j.A})
		c1 += j.A
		start := c2
		if c1 > start {
			start = c1
		}
		comm = append(comm, Interval{JobID: j.ID, Start: start, End: start + j.B})
		c2 = start + j.B
	}
	return comp, comm
}

// extremePermutation walks every ordering of perm (Heap's algorithm,
// reordering perm in place) and returns a copy of the one whose span is
// extreme under better, with that span. It is the one walk behind the
// three exhaustive searchers. better is strict, so of equal spans the
// first visited — the input order before any other — is the one
// returned.
func extremePermutation[J any](perm []J, span func([]J) float64, better func(s, than float64) bool) ([]J, float64) {
	best := append([]J(nil), perm...)
	bestSpan := span(best)
	var heaps func(k int)
	heaps = func(k int) {
		if k == 1 {
			if s := span(perm); better(s, bestSpan) {
				bestSpan = s
				copy(best, perm)
			}
			return
		}
		for i := 0; i < k; i++ {
			heaps(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
	}
	if len(perm) > 0 {
		heaps(len(perm))
	}
	return best, bestSpan
}

func shorter(s, than float64) bool { return s < than }

// BestPermutation exhaustively searches all permutations and returns a
// makespan-minimal sequence. Exponential: intended for validating
// Johnson on small instances (n ≤ ~9).
func BestPermutation(jobs []Job) ([]Job, float64) {
	return extremePermutation(append([]Job(nil), jobs...), Makespan, shorter)
}

// WorstPermutation is BestPermutation's mirror, used by the scheduling
// ablation to bound how much ordering matters.
func WorstPermutation(jobs []Job) ([]Job, float64) {
	return extremePermutation(append([]Job(nil), jobs...), Makespan,
		func(s, than float64) bool { return s > than })
}
