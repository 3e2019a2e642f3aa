package flowshop

import (
	"fmt"
	"slices"
	"sort"
)

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
//
// Cost. ScheduleM is on a request's critical path, so it costs what
// the algorithms cost: CDS O(m·n log n), NEH O(n²·m) by Taillard's
// head/tail acceleration (nehOrder), and a swap descent whose trials
// start from cached state and stop once they provably cannot win
// (swapDescentM). Scratch is a few flat (n+1)·m matrices that live for
// one call: ≈ 55 allocations at n=100, m=3, over half of them inside
// CDS's two Johnson calls. A one-type instance (every job's stages ==)
// costs its deep copy and one O(n·m) comparison: all three stages
// would return it in input order (see ScheduleM), so none runs.

// JobM is an m-stage job: Stages[i] runs on machine i. Every job in a
// sequence must have the same number of stages (the sequencers panic
// on a ragged slice). ID is an opaque caller tag preserved by
// scheduling.
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

// cloneJobsM deep-copies a job slice, Stages included (one backing
// array, each slice capped so an append cannot reach its neighbour),
// so scheduling never aliases — let alone mutates — caller memory: the
// API-boundary copy discipline TestFlowshopInputsUnmutated pins.
func cloneJobsM(jobs []JobM) []JobM {
	total := 0
	for _, j := range jobs {
		total += len(j.Stages)
	}
	flat := make([]float64, 0, total)
	out := make([]JobM, len(jobs))
	for i, j := range jobs {
		lo := len(flat)
		flat = append(flat, j.Stages...)
		out[i] = JobM{ID: j.ID, Stages: flat[lo:len(flat):len(flat)]}
	}
	return out
}

// ownJobsM is every sequencer's entry: a private deep copy of jobs and
// their common stage count m. A ragged slice panics here, by name — a
// short job would otherwise die on a bare index error deep in the
// recurrence and a long one would write into the next scratch row.
func ownJobsM(jobs []JobM) (own []JobM, m int) {
	if len(jobs) == 0 {
		return nil, 0
	}
	m = len(jobs[0].Stages)
	for i, j := range jobs {
		if len(j.Stages) != m {
			panic(fmt.Sprintf("flowshop: job %d has %d stages, want %d", i, len(j.Stages), m))
		}
	}
	return cloneJobsM(jobs), m
}

// step advances the machine state c (c[k]: when machine k falls idle)
// by one job: C_k = max(C_{k-1}, C_k) + p_k, left to right. Every
// evaluator in this file is this one function, so a state computed
// here and one computed by MakespanM are the same floats.
func step(c, stages []float64) {
	stages = stages[:len(c)]
	c[0] += stages[0]
	for k := 1; k < len(c); k++ {
		if c[k-1] > c[k] {
			c[k] = c[k-1]
		}
		c[k] += stages[k]
	}
}

// makespanInto is MakespanM on a caller-owned state row c (len m >= 1).
func makespanInto(c []float64, seq []JobM) float64 {
	clear(c)
	for _, j := range seq {
		step(c, j.Stages)
	}
	return c[len(c)-1]
}

// fillHeads writes the machine state after every prefix of seq into
// the flat (len(seq)+1)×m matrix e: row p is the state after p jobs,
// row 0 stays all-zero. Rows 0..from must already be valid; rows
// from+1.. are recomputed.
func fillHeads(e []float64, seq []JobM, m, from int) {
	for p := from; p < len(seq); p++ {
		row := e[(p+1)*m : (p+2)*m]
		copy(row, e[p*m:(p+1)*m])
		step(row, seq[p].Stages)
	}
}

// MakespanM evaluates the exact m-machine permutation flow-shop
// makespan recurrence C_{i,j} = max(C_{i-1,j}, C_{i,j-1}) + p_{i,j}
// for a sequence. Empty sequences have makespan 0.
func MakespanM(seq []JobM) float64 {
	if len(seq) == 0 || len(seq[0].Stages) == 0 {
		return 0
	}
	return makespanInto(make([]float64, len(seq[0].Stages)), seq)
}

// CompletionsM returns each job's completion time (end of its last
// stage) in sequence order.
func CompletionsM(seq []JobM) []float64 {
	out := make([]float64, len(seq))
	if len(seq) == 0 || len(seq[0].Stages) == 0 {
		return out
	}
	c := make([]float64, len(seq[0].Stages))
	for i, j := range seq {
		step(c, j.Stages)
		out[i] = c[len(c)-1]
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
	own, m := ownJobsM(jobs)
	return cdsOrder(own, m)
}

// cdsOrder is CDSM on jobs the caller owns: the result's Stages alias
// jobs' (at m <= 1, where there is nothing to order, it is jobs).
func cdsOrder(jobs []JobM, m int) []JobM {
	if m <= 1 {
		return jobs
	}
	two := make([]Job, len(jobs))
	best, trial := make([]JobM, len(jobs)), make([]JobM, len(jobs))
	c := make([]float64, m)
	bestSpan := 0.0
	for t := 1; t < m; t++ {
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
		for i, o := range Johnson(two) {
			trial[i] = jobs[o.ID]
		}
		if span := makespanInto(c, trial); t == 1 || span < bestSpan {
			best, trial, bestSpan = trial, best, span
		}
	}
	return best
}

// NEHM orders jobs with the Nawaz–Enscore–Ham insertion heuristic on m
// machines: jobs sorted by decreasing total processing time are
// inserted one at a time at the position minimizing the partial
// makespan (the lowest such position). O(n²·m) by Taillard's
// acceleration, see nehOrder. The input is not modified and the result
// shares no memory with it.
func NEHM(jobs []JobM) []JobM {
	own, m := ownJobsM(jobs)
	if m == 0 {
		return own
	}
	return nehOrder(own, m)
}

// nehOrder is NEHM on jobs the caller owns (m >= 1); the result's
// Stages alias jobs'.
//
// Taillard (1990): per inserted job compute once the heads e[i] of the
// partial sequence of L jobs (machine state after its first i jobs —
// MakespanM's own left-to-right recurrence) and the tails q[i]
// (q[i][k]: from the start of job i's stage k to the end of the
// schedule, the same recurrence run right to left). Inserting job j at
// position pos then costs O(m): its stage-k completion is
// c_k = max(c_{k-1}, e[pos][k]) + p[k], the makespan
// max_k c_k + q[pos][k]. n insertions × O(L·m) = O(n²·m).
//
// Exactness. In exact arithmetic this is the direct algorithm: on
// integer-valued stage times it returns the same sequence
// (TestNEHMMatchesDirectOnIntegers). In floats it adds head + tail
// where a full evaluation adds left to right, so insertion positions
// that are *mathematically tied* — common: whenever the critical path
// stays on one machine through the moved job — are separated by
// different rounding noise and the first minimum can land elsewhere.
// Measured against the direct form (PR 20, seed 2020, n <= 61, m <= 5):
// on JPSChain's traffic ScheduleM returns the identical sequence in
// 5 370 of 5 370 instances; on random floats NEH's own sequence
// differs in ≈ 85 % of instances and ScheduleM's makespan ratio
// new/direct has mean 0.99995 over 1 500 all-distinct instances (507
// worse, 270 better, 723 equal; range 0.965–1.052) and 1.00002 over
// 1 500 with 1–4 job types (356 / 90 / 1 054; 0.993–1.034). Noise
// breaks the ties in both forms: there is no epsilon and no reference
// mode (TestScheduleMRatioVsReference, and
// TestScheduleMMatchesReferenceOnChainTraffic in core).
func nehOrder(jobs []JobM, m int) []JobM {
	n := len(jobs)
	type keyed struct {
		JobM
		total float64 // computed once, not once per comparison
	}
	order := make([]keyed, n)
	for i, j := range jobs {
		order[i] = keyed{j, j.Total()}
	}
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].total != order[b].total {
			return order[a].total > order[b].total
		}
		return order[a].ID < order[b].ID
	})

	seq := make([]JobM, 0, n)
	e := make([]float64, (n+1)*m)
	q := make([]float64, (n+1)*m)
	valid := 0 // heads e[0..valid] survive the previous insertion
	for _, j := range order {
		L := len(seq)
		fillHeads(e, seq, m, valid)
		for i := L - 1; i >= 0; i-- { // q's row L is never written: the empty tail
			row, next, p := q[i*m:(i+1)*m], q[(i+1)*m:(i+2)*m], seq[i].Stages
			row[m-1] = next[m-1] + p[m-1]
			for k := m - 2; k >= 0; k-- {
				t := next[k]
				if row[k+1] > t {
					t = row[k+1]
				}
				row[k] = t + p[k]
			}
		}
		p := j.Stages
		bestPos, bestSpan := 0, -1.0
		for pos := 0; pos <= L; pos++ {
			head, tail := e[pos*m:(pos+1)*m], q[pos*m:(pos+1)*m]
			c := head[0] + p[0]
			span := c + tail[0]
			for k := 1; k < m; k++ {
				if head[k] > c {
					c = head[k]
				}
				c += p[k]
				if c+tail[k] > span {
					span = c + tail[k]
				}
			}
			if bestSpan < 0 || span < bestSpan {
				bestPos, bestSpan = pos, span
			}
		}
		seq = seq[:L+1]
		copy(seq[bestPos+1:], seq[bestPos:L])
		seq[bestPos] = j.JobM
		valid = bestPos
	}
	return seq
}

// ScheduleM is the production m-machine sequencer: the better of the
// CDSM and NEHM sequences (compared by MakespanM, CDS on a tie),
// polished by pairwise-swap descent. O(n²·m) plus the descent; one
// deep copy of the input serves all three stages. NEH's float
// tie-breaking is described at nehOrder. The input is not modified and
// the result shares no memory with it.
//
// A one-type instance — every job's Stages element-wise == the first
// job's — comes back as that copy, in input order, in O(n·m): what the
// full path returns, for three reasons. Johnson's rule breaks ties by
// index, so every CDS surrogate keeps the input order and t = 1 wins;
// NEH's sequence holds the same stage vectors, so it prices to the
// same float and the strict < keeps CDS; and the descent skips every
// pair by its rule (2). NaN stages are never ==, so they take the full
// path (TestScheduleMOneTypeMatchesFullPath).
func ScheduleM(jobs []JobM) []JobM {
	own, m := ownJobsM(jobs)
	if m == 0 || oneType(own) {
		return own
	}
	seq, neh := cdsOrder(own, m), nehOrder(own, m)
	c := make([]float64, m)
	if makespanInto(c, neh) < makespanInto(c, seq) {
		seq = neh
	}
	swapDescentM(seq)
	return seq
}

// oneType reports whether every job's Stages are element-wise == the
// first job's.
func oneType(jobs []JobM) bool {
	for _, j := range jobs[1:] {
		if !slices.Equal(j.Stages, jobs[0].Stages) {
			return false
		}
	}
	return true
}

// swapDescentM reorders seq in place by first-improvement pairwise
// swaps — pairs (i, j>i) in lexicographic order, a swap kept when it
// shortens the makespan by more than 1e-12 — until a pass finds none.
// (1e-12 is under one ulp of a span >= 2¹³ ≈ 10⁴ ms and under half an
// ulp above 2¹⁴, where span-1e-12 == span and the test is a plain <;
// on shorter schedules it refuses gains of rounding-noise size.)
//
// A pass is n²/2 trials, but a trial rarely costs the O(n·m) of a full
// evaluation, and the result is the full-evaluation descent's to the
// bit (TestSwapDescentMatchesFullReevaluation):
//
//  1. A trial is evaluated from cached state: the heads e of the
//     current sequence give the state in front of position i, and
//     consecutive trials of a row that put the same stage vector at
//     position i share the walk from i to j-1 (h), extended rather
//     than redone. Same left-to-right recurrence, same values: these
//     are MakespanM's floats.
//  2. Swapping two jobs whose Stages are element-wise == leaves the
//     same sequence of stage vectors: the makespan is span exactly,
//     the swap would be refused, so it is skipped.
//  3. Past position j the trial and the current sequence run the same
//     jobs, and float + and max are monotone: once the trial's state
//     is component-wise >= the cached head its makespan is >= span,
//     the swap would be refused, so it is abandoned there.
//
// On all-distinct jobs that leaves the walk from i to j: O(n³·m) per
// pass, small constant. JPSChain's jobs come in at most two types:
// half or more of the pairs fall to (2), the rest share one walk per
// row and are refused a step or two past j — O(n²·m).
func swapDescentM(seq []JobM) {
	n := len(seq)
	if n < 2 {
		return
	}
	m := len(seq[0].Stages)
	e := make([]float64, (n+1)*m)
	f, h := make([]float64, m), make([]float64, m)
	fillHeads(e, seq, m, 0)
	span := e[n*m+m-1]
	for improved := true; improved; {
		improved = false
		for i := 0; i < n; i++ {
			// h: state after position hp of the row's trials that put
			// stage vector atI at position i (nil: none started).
			var atI []float64
			hp := 0
			for j := i + 1; j < n; j++ {
				if slices.Equal(seq[i].Stages, seq[j].Stages) {
					continue
				}
				if atI == nil || !slices.Equal(atI, seq[j].Stages) {
					atI, hp = seq[j].Stages, i
					copy(h, e[i*m:(i+1)*m])
					step(h, atI)
				}
				for ; hp < j-1; hp++ {
					step(h, seq[hp+1].Stages)
				}
				copy(f, h)
				step(f, seq[i].Stages)
				p := j + 1
				for ; p < n && !dominates(f, e[p*m:(p+1)*m]); p++ {
					step(f, seq[p].Stages)
				}
				if p == n && f[m-1] < span-1e-12 {
					seq[i], seq[j] = seq[j], seq[i]
					span = f[m-1]
					fillHeads(e, seq, m, i)
					improved = true
					atI = nil
				}
			}
		}
	}
}

// dominates reports a[k] >= b[k] for every k.
func dominates(a, b []float64) bool {
	for k, v := range a {
		if v < b[k] {
			return false
		}
	}
	return true
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
	perm, m := ownJobsM(jobs)
	if m == 0 {
		return perm, 0, true
	}
	c := make([]float64, m)
	seq, span = extremePermutation(perm, func(p []JobM) float64 { return makespanInto(c, p) }, shorter)
	return seq, span, true
}
