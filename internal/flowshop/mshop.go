package flowshop

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// head/tail acceleration with heads and tails kept across insertions
// (nehOrder), and a swap descent whose trials start from cached state,
// compare job kinds instead of stage vectors and stop once they
// provably cannot win (swapDescentM). A state row is advanced into its
// successor in one pass (stepFrom), never copied first. Scratch is a
// few flat (n+1)·m matrices that live for one call: 19 allocations on
// BenchmarkScheduleM's n=100, m=3 instance, one per Johnson call inside
// CDS (TestScheduleMAllocs). A one-type instance (every job's stages
// ==) costs its deep copy and one O(n·m) comparison: all three stages
// would return it in input order (see ScheduleM), so none runs. An
// instance whose CDS order meets the load bound (LowerBoundM) costs the
// copy, CDS and the bound: no order can beat it, so NEH and the
// descent would return it unchanged, and neither runs. The cheapest
// ScheduleM call is the one not made. LowerBoundM bounds every order of
// a multiset in O(m²·kinds + n·m) with no allocation, and JPSChain
// prices a split only while that bound is below its best makespan so
// far. TwoKindScheduleM then gives, for two kinds in two runs, the
// order ScheduleM stops at when CDS meets the bound, in O(m²·n) with
// one m-vector and no list, so JPSChain calls ScheduleM only where CDS
// misses — on its frozen grid, never.

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

// ownJobsM is every sequencer's entry: a private deep copy of jobs and
// their common stage count m, so scheduling never aliases — let alone
// mutates — caller memory (TestFlowshopInputsUnmutated). The copies sit
// in one backing array, each slice capped so an append cannot reach its
// neighbour, and consecutive jobs whose Stages are the same slice share
// one copy: JPSChain's n jobs are two such runs, so its plans keep two
// stage vectors, not n. A ragged slice panics here, by name — a short
// job would otherwise die on a bare index error deep in the recurrence
// and a long one would write into the next scratch row.
func ownJobsM(jobs []JobM) (own []JobM, m int) {
	if len(jobs) == 0 {
		return nil, 0
	}
	m = len(jobs[0].Stages)
	copies := 0
	for i, j := range jobs {
		if len(j.Stages) != m {
			panic(fmt.Sprintf("flowshop: job %d has %d stages, want %d", i, len(j.Stages), m))
		}
		if i == 0 || !sameSlice(j.Stages, jobs[i-1].Stages) {
			copies++
		}
	}
	flat := make([]float64, 0, copies*m)
	own = make([]JobM, len(jobs))
	for i, j := range jobs {
		if i > 0 && sameSlice(j.Stages, jobs[i-1].Stages) {
			own[i] = JobM{ID: j.ID, Stages: own[i-1].Stages}
			continue
		}
		lo := len(flat)
		flat = append(flat, j.Stages...)
		own[i] = JobM{ID: j.ID, Stages: flat[lo:len(flat):len(flat)]}
	}
	return own, m
}

// sameSlice reports whether a and b are the same memory: same length
// and, if not empty, the same first element.
func sameSlice(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// stepFrom writes into dst the machine state src (src[k]: when machine
// k falls idle) advanced by one job: C_k = max(C_{k-1}, C_k) + p_k,
// left to right. dst may be src. Every evaluator in this file is this
// one function, so a state computed here and one computed by MakespanM
// are the same floats. The max keeps the machine's own time unless the
// previous stage ends strictly later — the order that decides which
// operand survives a NaN (TestScheduleMFrozen's "nan" classes).
func stepFrom(dst, src, stages []float64) {
	src, stages = src[:len(dst)], stages[:len(dst)]
	prev := src[0] + stages[0]
	dst[0] = prev
	for k := 1; k < len(dst); k++ {
		c := src[k]
		if prev > c {
			c = prev
		}
		prev = c + stages[k]
		dst[k] = prev
	}
}

// step advances the machine state c by one job in place.
func step(c, stages []float64) { stepFrom(c, c, stages) }

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
		stepFrom(e[(p+1)*m:(p+2)*m], e[p*m:(p+1)*m], seq[p].Stages)
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

// LowerBoundM bounds from below the makespan of every sequence of the
// multiset that holds counts[i] jobs with Stages kinds[i] (a kind with
// no jobs is ignored): no order of those jobs evaluates, in MakespanM's
// own floats, to less. It is the m-machine load bound, sound for the
// recurrence's rounding rather than only for exact arithmetic.
//
// For machine k, every sequence's makespan is >= the path that runs
// the first job through stages 0…k, every later job on machine k, and
// the last job from stage k+1 on: float + and max are monotone, so
// stepFrom's state is >= that path's float sum, taken in path order.
//   - Where every kind shares stages 0…k (==), that sum depends on the
//     order only through the last job's tail, so the least over kinds
//     is the bound, computed exactly as the recurrence adds it. A
//     sequence whose critical path runs there ties it.
//   - Otherwise the least head before k, the load on k and the least
//     tail after k are summed, and the sum shrunk by (n+m+4)·2⁻⁵²,
//     more than the rounding of that sum and of the path's n+m-1 terms
//     together can move either.
//
// The bound is the largest of the m. A NaN, infinite or negative stage
// returns -Inf, which bounds nothing; no jobs, 0. Kinds with jobs must
// all have the same number of stages (panics otherwise, as the
// sequencers do). O(m²·kinds + n·m), no allocation.
func LowerBoundM(kinds [][]float64, counts []int) float64 {
	return loadBound(multiset{kinds: kinds, counts: counts})
}

// multiset is an instance as loadBound reads it, group by group: kind
// i with counts[i] jobs or, where jobs is set, each run of consecutive
// jobs whose Stages are the same slice (ownJobsM gives a run one copy).
// A kind may appear in several groups; the bound takes the multiset.
type multiset struct {
	kinds  [][]float64
	counts []int
	jobs   []JobM
}

func (s multiset) len() int {
	if s.jobs != nil {
		return len(s.jobs)
	}
	return len(s.kinds)
}

// group returns the stages and job count of the group that starts at
// i, and where the next one starts.
func (s multiset) group(i int) (stages []float64, count, next int) {
	if s.jobs == nil {
		return s.kinds[i], s.counts[i], i + 1
	}
	next = i + 1
	for next < len(s.jobs) && sameSlice(s.jobs[next].Stages, s.jobs[i].Stages) {
		next++
	}
	return s.jobs[i].Stages, next - i, next
}

// loadBound is LowerBoundM on either form of a multiset. On JPSChain's
// jobs — mix runs of one kind, then the other — the groups are its
// kinds and counts, so ScheduleM's bound is LowerBoundM's, bit for bit.
func loadBound(s multiset) float64 {
	n := 0
	var lead []float64 // the first group with jobs: its stages
	for i := 0; i < s.len(); {
		st, count, next := s.group(i)
		if count > 0 {
			if n == 0 {
				lead = st
			}
			if len(st) != len(lead) {
				panic(fmt.Sprintf("flowshop: kind %d has %d stages, want %d", i, len(st), len(lead)))
			}
			for _, p := range st {
				if !(p >= 0) || math.IsInf(p, 1) {
					return math.Inf(-1)
				}
			}
			n += count
		}
		i = next
	}
	if n == 0 {
		return 0
	}
	m, shared := len(lead), len(lead) // stages 0…shared-1 are == across kinds
	for i := 0; i < s.len(); {
		st, count, next := s.group(i)
		for k := 0; k < shared && count > 0; k++ {
			if st[k] != lead[k] {
				shared = k
			}
		}
		i = next
	}
	shrink := 1 - float64(n+m+4)*0x1p-52
	lb := 0.0
	for k := 0; k < m; k++ {
		var path float64
		if k < shared {
			for _, p := range lead[:k+1] {
				path += p
			}
			for j := 1; j < n; j++ {
				path += lead[k]
			}
			least := math.Inf(1)
			for i := 0; i < s.len(); {
				st, count, next := s.group(i)
				if count > 0 {
					t := path
					for _, p := range st[k+1:] {
						t += p
					}
					least = min(least, t)
				}
				i = next
			}
			path = least
		} else {
			head, tail, load := math.Inf(1), math.Inf(1), 0.0
			for i := 0; i < s.len(); {
				st, count, next := s.group(i)
				i = next
				if count <= 0 {
					continue
				}
				var h, t float64
				for _, p := range st[:k] {
					h += p
				}
				for _, p := range st[k+1:] {
					t += p
				}
				head, tail = min(head, h), min(tail, t)
				load += float64(count) * st[k]
			}
			path = (head + load + tail) * shrink
		}
		lb = max(lb, path)
	}
	return lb
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
			two[i] = surrogate(j.Stages, t, i)
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

// TwoKindScheduleM is ScheduleM on nx jobs with x's stages followed by
// ny with y's, numbered 0…nx+ny−1 in that order, wherever ScheduleM
// stops at CDS — with no list, no copy and no sort. bound is
// LowerBoundM([][]float64{x, y}, []int{nx, ny}), which the caller has
// in hand. ok reports that the makespan span meets it (and it is not
// −Inf): no order is shorter, so ScheduleM returns CDS's order, two
// blocks in ID order, x's first exactly when xFirst. Where !ok the
// caller runs ScheduleM.
//
// One type (nx or ny 0, or x and y element-wise ==) keeps input order.
// Otherwise every x precedes every y by ID, so each CDS surrogate's
// Johnson order is the two blocks as johnsonBefore orders x (job 0) and
// y (job 1) on cdsOrder's sums; the blocks run through step, giving
// makespanInto's floats, and the strict < keeps the first surrogate.
// One m-vector of scratch (TestTwoKindScheduleMMatchesScheduleM).
func TwoKindScheduleM(x []float64, nx int, y []float64, ny int, bound float64) (span float64, xFirst, ok bool) {
	m := len(x)
	if nx == 0 {
		m = len(y)
	}
	if m == 0 {
		return 0, true, bound == 0
	}
	c := make([]float64, m)
	blocks := func(xFirst bool) float64 {
		a, na, b, nb := x, nx, y, ny
		if !xFirst {
			a, na, b, nb = y, ny, x, nx
		}
		clear(c)
		for range na {
			step(c, a)
		}
		for range nb {
			step(c, b)
		}
		return c[m-1]
	}
	xFirst = true
	single := nx == 0 || ny == 0 || slices.Equal(x, y)
	if single || m == 1 {
		span = blocks(true)
	}
	for t := 1; t < m && !single; t++ {
		first := !johnsonBefore(surrogate(y, t, 1), surrogate(x, t, 0))
		if s := blocks(first); t == 1 || s < span {
			span, xFirst = s, first
		}
	}
	return span, xFirst, span == bound && !math.IsInf(bound, -1)
}

// surrogate is CDS's two-machine job t for stages: A sums the first t
// stages, B the rest, each left to right.
func surrogate(stages []float64, t, id int) Job {
	j := Job{ID: id}
	for k, p := range stages {
		if k < t {
			j.A += p
		} else {
			j.B += p
		}
	}
	return j
}

// nehOrder orders jobs the caller owns (m >= 1) with the
// Nawaz–Enscore–Ham insertion heuristic: jobs sorted by decreasing
// total processing time are inserted one at a time at the position
// minimizing the partial makespan (the lowest such position). The
// result's Stages alias jobs'.
//
// Taillard (1990): per inserted job compute once the heads e[i] of the
// partial sequence of L jobs (machine state after its first i jobs —
// MakespanM's own left-to-right recurrence) and the tails (from the
// start of a job's stage k to the end of the schedule, the same
// recurrence run right to left). Inserting job j at position pos then
// costs O(m): its stage-k completion is c_k = max(c_{k-1}, e[pos][k])
// + p[k], the makespan max_k c_k + tail[k] over the tail of the jobs
// after pos. n insertions × O(L·m) = O(n²·m).
//
// Neither table is rebuilt per insertion. Heads are indexed by prefix
// length and tails by suffix length — q[s] is the tail of the last s
// jobs, q[0] the empty tail — so an insertion at bestPos leaves heads
// 0…bestPos and tails 0…L−bestPos valid, and the next insertion
// extends each from there. Each surviving row is the same floats a
// full rebuild computes: the same jobs, in the same order, through the
// same recurrence.
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
// TestScheduleMMatchesReferenceOnChainTraffic in core). NaN stages
// take the comparisons as written: a max keeps its first-named operand
// unless the other is strictly greater, a NaN span at position 0 keeps
// the job there, and one elsewhere never wins. The surviving heads and
// tails hold what a full rebuild computes, NaN included
// (TestScheduleMFrozen's "nan" and "nankind" classes).
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
	slices.SortStableFunc(order, func(a, b keyed) int {
		if a.total != b.total {
			return before(a.total > b.total)
		}
		return cmp.Compare(a.ID, b.ID)
	})

	seq := make([]JobM, 0, n)
	e := make([]float64, (n+1)*m)
	q := make([]float64, (n+1)*m) // row 0 is never written: the empty tail
	heads, tails := 0, 0          // e[0..heads] and q[0..tails] survive the previous insertion
	for _, j := range order {
		L := len(seq)
		fillHeads(e, seq, m, heads)
		for sl := tails + 1; sl <= L; sl++ {
			row, next, p := q[sl*m:(sl+1)*m], q[(sl-1)*m:sl*m], seq[L-sl].Stages
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
			head, tail := e[pos*m:(pos+1)*m], q[(L-pos)*m:(L-pos+1)*m]
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
		heads, tails = bestPos, L-bestPos
	}
	return seq
}

// ScheduleM is the production m-machine sequencer: the better of the
// CDSM and NEH (nehOrder) sequences (compared by MakespanM, CDS on a
// tie), polished by pairwise-swap descent. O(n²·m) plus the descent; one
// deep copy of the input serves all three stages. NEH's float
// tie-breaking is described at nehOrder. The input is not modified and
// the result shares no memory with it.
//
// Two shortcuts return what that full path returns, IDs and stage bits
// alike (TestScheduleMOneTypeMatchesFullPath, TestScheduleMStopsAtBound).
//
// A one-type instance — every job's Stages element-wise == the first
// job's — comes back as that copy, in input order, in O(n·m), for
// three reasons. Johnson's rule breaks ties by index, so every CDS
// surrogate keeps the input order and t = 1 wins; NEH's sequence holds
// the same stage vectors, so it prices to the same float and the
// strict < keeps CDS; and the descent skips every pair by its rule (2).
// NaN stages are never ==, so they take the full path.
//
// Otherwise, once CDS's makespan equals the instance's load bound
// (LowerBoundM, sound for MakespanM's floats), CDS's order is returned
// without NEH or the descent: NEH's makespan is >= the bound, so it
// loses the strict <; every descent trial evaluates to >= the bound,
// so none beats span − 1e-12. NaN, ±Inf or negative stages make the
// bound −Inf, which no makespan is taken to meet. CDS meets the bound
// on every two-kind split JPSChain sequences on its frozen grid
// (TestLowerBoundMSoundOnChainSplits in core), so JPSChain prices those
// splits with TwoKindScheduleM and comes here only where CDS misses.
func ScheduleM(jobs []JobM) []JobM {
	own, m := ownJobsM(jobs)
	if m == 0 || oneType(own) {
		return own
	}
	return sequenceM(own, m, true)
}

// sequenceM is ScheduleM past its one-type shortcut, on jobs it owns
// (m >= 1): CDS, then — unless atBound and CDS meets the load bound —
// NEH against it and the descent. With atBound false it is the full
// path both shortcuts are held to.
func sequenceM(own []JobM, m int, atBound bool) []JobM {
	seq := cdsOrder(own, m)
	c := make([]float64, m)
	span := makespanInto(c, seq)
	if atBound && span == loadBound(multiset{jobs: own}) && !math.IsInf(span, -1) {
		return seq
	}
	if neh := nehOrder(own, m); makespanInto(c, neh) < span {
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
//     consecutive trials of a row that put the same kind at position
//     i share the walk from i to j-1 (h), extended rather than redone.
//     Same left-to-right recurrence, same values: these are MakespanM's
//     floats.
//  2. Swapping two jobs of one kind leaves the same sequence of stage
//     vectors: the makespan is span exactly, the swap would be
//     refused, so it is skipped.
//  3. Past position j the trial and the current sequence run the same
//     jobs, and float + and max are monotone: once the trial's state
//     is component-wise >= the cached head its makespan is >= span,
//     the swap would be refused, so it is abandoned there.
//
// A job's kind (kindsOf) is numbered once, before the first pass, and
// travels with the job through every swap, so rules (1) and (2)
// compare two ints where they would compare two stage vectors. Kinds
// are equal exactly when slices.Equal is: a vector holding a NaN
// equals none, so its job shares no walk and is skipped by no pair.
//
// On all-distinct jobs that leaves the walk from i to j: O(n³·m) per
// pass, small constant. JPSChain's jobs come in at most two kinds:
// half or more of the pairs fall to (2), the rest share one walk per
// row and are refused a step or two past j — O(n²·m).
func swapDescentM(seq []JobM) {
	n := len(seq)
	if n < 2 {
		return
	}
	m := len(seq[0].Stages)
	kind := kindsOf(seq)
	e := make([]float64, (n+1)*m)
	f, h := make([]float64, m), make([]float64, m)
	fillHeads(e, seq, m, 0)
	span := e[n*m+m-1]
	for improved := true; improved; {
		improved = false
		for i := 0; i < n; i++ {
			// h: state after position hp of the row's trials that put
			// a job of kind atKind at position i (-1: none started).
			atKind, hp := -1, 0
			for j := i + 1; j < n; j++ {
				if kind[i] == kind[j] {
					continue
				}
				if atKind != kind[j] {
					atKind, hp = kind[j], i
					stepFrom(h, e[i*m:(i+1)*m], seq[j].Stages)
				}
				for ; hp < j-1; hp++ {
					step(h, seq[hp+1].Stages)
				}
				stepFrom(f, h, seq[i].Stages)
				p := j + 1
				for ; p < n && !dominates(f, e[p*m:(p+1)*m]); p++ {
					step(f, seq[p].Stages)
				}
				if p == n && f[m-1] < span-1e-12 {
					seq[i], seq[j] = seq[j], seq[i]
					kind[i], kind[j] = kind[j], kind[i]
					span = f[m-1]
					fillHeads(e, seq, m, i)
					improved = true
					atKind = -1
				}
			}
		}
	}
}

// kindsOf numbers the stage vectors of seq in order of first
// appearance: kind[i] == kind[j] exactly when
// slices.Equal(seq[i].Stages, seq[j].Stages). == on floats is an
// equivalence once NaN is set aside (±0 are one kind), and a vector
// holding a NaN equals none, itself included, so it is a kind of its
// own. O(n·kinds·m).
func kindsOf(seq []JobM) []int {
	kind := make([]int, len(seq))
	var first []int // first[k]: the position kind k first appears at
	for i, j := range seq {
		kind[i] = len(first)
		for k, at := range first {
			if slices.Equal(seq[at].Stages, j.Stages) {
				kind[i] = k
				break
			}
		}
		if kind[i] == len(first) {
			first = append(first, i)
		}
	}
	return kind
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
