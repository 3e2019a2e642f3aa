package flowshop

import "sort"

// m-machine permutation flow shop — the one sequencer behind every
// multi-hop plan. A job partitioned by k cuts over an ordered device
// chain becomes a (k+1)-stage job: device-0 compute, then one
// transmission stage per link. At two machines Johnson's rule is exact;
// from three machines on the makespan-minimal permutation problem is
// NP-hard (Garey, Johnson & Sethi 1976), so the functions here are
// heuristics measured against brute force (TestScheduleMGapVsBruteForce).
//
// The Campbell–Dudek–Smith (CDS) generalization uses the
// prefix/suffix-split surrogate family: surrogate t (t = 1..m-1) is the
// two-machine instance A = Σ first t stages, B = Σ last m-t stages,
// solved by Johnson's rule; the best of the m-1 sequences wins. At m=2
// the single surrogate IS Johnson's rule (exact); at m=3 the family is
// the classic pair (A vs B+C, A+B vs C), exact whenever one machine
// dominates — the usual case here, where the last hop is tiny.

// JobM is an m-stage job: Stages[i] runs on machine i. Every job in a
// sequence must have the same number of stages. ID is an opaque caller
// tag preserved by scheduling.
type JobM struct {
	ID     int
	Stages []float64
}

// Total returns the serial processing time Σ Stages.
func (j JobM) Total() float64 {
	var t float64
	for _, s := range j.Stages {
		t += s
	}
	return t
}

// cloneJobsM deep-copies a job slice, Stages included, so scheduling
// never aliases (let alone mutates) caller memory — the API-boundary
// copy discipline TestFlowshopInputsUnmutated pins.
func cloneJobsM(jobs []JobM) []JobM {
	out := make([]JobM, len(jobs))
	for i, j := range jobs {
		out[i] = JobM{ID: j.ID, Stages: append([]float64(nil), j.Stages...)}
	}
	return out
}

// MakespanM evaluates the exact m-machine permutation flow-shop
// makespan recurrence C_{i,j} = max(C_{i-1,j}, C_{i,j-1}) + p_{i,j}
// for a sequence. Empty sequences have makespan 0.
func MakespanM(seq []JobM) float64 {
	if len(seq) == 0 {
		return 0
	}
	m := len(seq[0].Stages)
	if m == 0 {
		return 0
	}
	c := make([]float64, m)
	for _, j := range seq {
		c[0] += j.Stages[0]
		for k := 1; k < m; k++ {
			if c[k-1] > c[k] {
				c[k] = c[k-1]
			}
			c[k] += j.Stages[k]
		}
	}
	return c[m-1]
}

// CompletionsM returns each job's completion time (end of its last
// stage) in sequence order.
func CompletionsM(seq []JobM) []float64 {
	out := make([]float64, len(seq))
	if len(seq) == 0 {
		return out
	}
	m := len(seq[0].Stages)
	c := make([]float64, m)
	for i, j := range seq {
		c[0] += j.Stages[0]
		for k := 1; k < m; k++ {
			if c[k-1] > c[k] {
				c[k] = c[k-1]
			}
			c[k] += j.Stages[k]
		}
		out[i] = c[m-1]
	}
	return out
}

// SumStagesM returns the per-machine stage sums — the m lower bounds
// whose maximum drives the asymptotic average makespan.
func SumStagesM(jobs []JobM) []float64 {
	if len(jobs) == 0 {
		return nil
	}
	sums := make([]float64, len(jobs[0].Stages))
	for _, j := range jobs {
		for k, s := range j.Stages {
			sums[k] += s
		}
	}
	return sums
}

// CDSM orders jobs with the Campbell–Dudek–Smith heuristic generalized
// to m machines: m-1 two-machine surrogates (prefix sum of the first t
// stages vs suffix sum of the last m-t stages, t = 1..m-1) are each
// sequenced by Johnson's rule and the best makespan wins (ties keep the
// smaller t, so m=3 prefers A vs B+C).
// The input is not modified and the result shares no memory with it.
func CDSM(jobs []JobM) []JobM {
	if len(jobs) == 0 {
		return nil
	}
	m := len(jobs[0].Stages)
	if m <= 1 {
		return cloneJobsM(jobs)
	}
	var best []JobM
	bestSpan := 0.0
	for t := 1; t < m; t++ {
		two := make([]Job, len(jobs))
		for i, j := range jobs {
			var a, b float64
			for k := 0; k < t; k++ {
				a += j.Stages[k]
			}
			for k := t; k < m; k++ {
				b += j.Stages[k]
			}
			two[i] = Job{ID: i, A: a, B: b}
		}
		order := Johnson(two)
		seq := make([]JobM, len(order))
		for i, o := range order {
			seq[i] = jobs[o.ID]
		}
		if span := MakespanM(seq); best == nil || span < bestSpan {
			best, bestSpan = seq, span
		}
	}
	return cloneJobsM(best)
}

// NEHM orders jobs with the Nawaz–Enscore–Ham insertion heuristic on m
// machines: jobs sorted by decreasing total processing time are
// inserted one at a time at the position minimizing the partial
// makespan. O(n³·m) in this direct form. The input is not modified and
// the result shares no memory with it.
func NEHM(jobs []JobM) []JobM {
	if len(jobs) == 0 {
		return nil
	}
	order := cloneJobsM(jobs)
	sort.SliceStable(order, func(i, j int) bool {
		ti, tj := order[i].Total(), order[j].Total()
		if ti != tj {
			return ti > tj
		}
		return order[i].ID < order[j].ID
	})
	seq := make([]JobM, 0, len(order))
	for _, j := range order {
		bestPos, bestSpan := 0, -1.0
		for pos := 0; pos <= len(seq); pos++ {
			trial := make([]JobM, 0, len(seq)+1)
			trial = append(trial, seq[:pos]...)
			trial = append(trial, j)
			trial = append(trial, seq[pos:]...)
			if span := MakespanM(trial); bestSpan < 0 || span < bestSpan {
				bestPos, bestSpan = pos, span
			}
		}
		seq = append(seq[:bestPos], append([]JobM{j}, seq[bestPos:]...)...)
	}
	return seq
}

// ScheduleM is the production m-machine sequencer: the better of the
// CDSM and NEHM sequences, polished by pairwise-swap descent. The input
// is not modified and the result shares no memory with it.
func ScheduleM(jobs []JobM) []JobM {
	cds := CDSM(jobs)
	neh := NEHM(jobs)
	seq := cds
	if MakespanM(neh) < MakespanM(cds) {
		seq = neh
	}
	return swapDescentM(seq)
}

// swapDescentM applies first-improvement pairwise swaps until a local
// optimum; O(n²·m) per pass and a handful of passes in practice. The
// input slice is copied, never reordered in place.
func swapDescentM(seq []JobM) []JobM {
	cur := append([]JobM(nil), seq...)
	span := MakespanM(cur)
	for improved := true; improved; {
		improved = false
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				cur[i], cur[j] = cur[j], cur[i]
				if s := MakespanM(cur); s < span-1e-12 {
					span = s
					improved = true
				} else {
					cur[i], cur[j] = cur[j], cur[i]
				}
			}
		}
	}
	return cur
}

// MaxExhaustiveJobs caps the factorial permutation search
// (BestPermutationM): 10! ≈ 3.6M makespan evaluations is the largest
// instance that stays sub-second. Above the cap the search returns the
// ScheduleM heuristic with ok=false instead of hanging the caller.
const MaxExhaustiveJobs = 10

// BestPermutationM exhaustively searches all permutations (Heap's
// algorithm) and returns a makespan-minimal sequence with ok=true.
// Beyond MaxExhaustiveJobs the search is refused: the ScheduleM
// heuristic sequence comes back with ok=false so callers can still
// proceed but never mistake it for the optimum. The input is not
// modified.
func BestPermutationM(jobs []JobM) (seq []JobM, span float64, ok bool) {
	if len(jobs) > MaxExhaustiveJobs {
		seq = ScheduleM(jobs)
		return seq, MakespanM(seq), false
	}
	best := cloneJobsM(jobs)
	bestSpan := MakespanM(best)
	perm := cloneJobsM(jobs)
	var heaps func(k int)
	heaps = func(k int) {
		if k == 1 {
			if span := MakespanM(perm); span < bestSpan {
				bestSpan = span
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
	return best, bestSpan, true
}
