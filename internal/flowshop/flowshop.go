// Package flowshop implements the two-machine flow-shop scheduling
// theory of Section 4: after partitioning, every job is a pair of
// serial stages — mobile computation (stage A) then upload (stage B) —
// sharing one CPU and one uplink, pipelined across jobs. Johnson's
// rule gives the makespan-optimal permutation (Alg. 1); the package
// also provides the exact makespan recurrence, the closed form of
// Proposition 4.1, Gantt extraction and exhaustive sequencing for
// validation.
package flowshop

import "sort"

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
// modified.
func Johnson(jobs []Job) []Job {
	var s1, s2 []Job
	for _, j := range jobs {
		if j.CommHeavy() {
			s1 = append(s1, j)
		} else {
			s2 = append(s2, j)
		}
	}
	sort.SliceStable(s1, func(i, k int) bool {
		if s1[i].A != s1[k].A {
			return s1[i].A < s1[k].A
		}
		return s1[i].ID < s1[k].ID
	})
	sort.SliceStable(s2, func(i, k int) bool {
		if s2[i].B != s2[k].B {
			return s2[i].B > s2[k].B
		}
		return s2[i].ID < s2[k].ID
	})
	return append(s1, s2...)
}

// Makespan evaluates the exact two-machine flow-shop makespan of a
// sequence via the standard recurrence:
//
//	C1_j = C1_{j-1} + a_j
//	C2_j = max(C2_{j-1}, C1_j) + b_j
func Makespan(seq []Job) float64 {
	var c1, c2 float64
	for _, j := range seq {
		c1 += j.A
		if c1 > c2 {
			c2 = c1
		}
		c2 += j.B
	}
	return c2
}

// Completions returns each job's completion time (end of its B stage)
// in sequence order.
func Completions(seq []Job) []float64 {
	out := make([]float64, len(seq))
	var c1, c2 float64
	for i, j := range seq {
		c1 += j.A
		if c1 > c2 {
			c2 = c1
		}
		c2 += j.B
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

// SumStages returns (ΣA, ΣB) — the two lower bounds whose maximum
// drives the asymptotic average makespan of §4.2.
func SumStages(jobs []Job) (sumA, sumB float64) {
	for _, j := range jobs {
		sumA += j.A
		sumB += j.B
	}
	return sumA, sumB
}
