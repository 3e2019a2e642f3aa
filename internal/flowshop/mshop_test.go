package flowshop

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func randJobsM(rng *rand.Rand, n, m int) []JobM {
	jobs := make([]JobM, n)
	for i := range jobs {
		st := make([]float64, m)
		for k := range st {
			st[k] = rng.Float64() * 10
		}
		jobs[i] = JobM{ID: i, Stages: st}
	}
	return jobs
}

// At m=2 the single CDS surrogate IS Johnson's rule, which is optimal:
// CDSM must match the exhaustive optimum exactly.
func TestCDSMExactAtTwoMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		jobs := randJobsM(rng, 2+rng.Intn(6), 2)
		_, best, ok := BestPermutationM(jobs)
		if !ok {
			t.Fatal("exhaustive search refused on a small instance")
		}
		if got := MakespanM(CDSM(jobs)); math.Abs(got-best) > 1e-9 {
			t.Fatalf("trial %d: CDSM %g != Johnson optimum %g at m=2", trial, got, best)
		}
	}
}

// Heuristic-gap acceptance: on <=8-job, <=4-machine instances ScheduleM
// stays within 6% of the brute-force optimum and plain CDSM within 35%.
// These are the measured-with-margin bounds documented in DESIGN.md §12
// (observed over this fixed seed: ScheduleM 1.043x worst, CDSM 1.144x
// worst); scripts/check.sh runs this test as its heuristic-gap leg.
func TestScheduleMGapVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	worstSched, worstCDS := 1.0, 1.0
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(7) // 2..8 jobs
		m := 2 + rng.Intn(3) // 2..4 machines
		jobs := randJobsM(rng, n, m)
		_, best, ok := BestPermutationM(jobs)
		if !ok {
			t.Fatal("exhaustive search refused on a small instance")
		}
		sched := MakespanM(ScheduleM(jobs))
		cds := MakespanM(CDSM(jobs))
		if sched < best-1e-9 {
			t.Fatalf("trial %d: ScheduleM %g below optimum %g", trial, sched, best)
		}
		if r := sched / best; r > worstSched {
			worstSched = r
		}
		if r := cds / best; r > worstCDS {
			worstCDS = r
		}
	}
	t.Logf("worst ScheduleM/opt = %.3f, worst CDSM/opt = %.3f", worstSched, worstCDS)
	if worstSched > 1.06 {
		t.Errorf("ScheduleM worst ratio %.3f > documented 1.06 bound", worstSched)
	}
	if worstCDS > 1.35 {
		t.Errorf("CDSM worst ratio %.3f > documented 1.35 bound", worstCDS)
	}
}

// Bugfix regression (input mutation): every public sequencer must leave
// its input slice untouched and return memory disjoint from it.
func TestFlowshopInputsUnmutated(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	jobsM := randJobsM(rng, 7, 4)
	snapM := cloneJobsM(jobsM)
	seqsM := [][]JobM{CDSM(jobsM), NEHM(jobsM), ScheduleM(jobsM)}
	bpM, _, _ := BestPermutationM(jobsM)
	seqsM = append(seqsM, bpM)
	for _, s := range seqsM {
		for i := range s {
			for k := range s[i].Stages {
				s[i].Stages[k] = -1 // aliased Stages would corrupt the input
			}
		}
	}
	if !reflect.DeepEqual(jobsM, snapM) {
		t.Errorf("JobM input mutated (Stages aliasing): %v != %v", jobsM, snapM)
	}
}

// Bugfix regression (factorial guard): at the MaxExhaustiveJobs
// boundary the search still runs (ok=true); one past it the call
// returns instantly with the heuristic and ok=false.
func TestBestPermutationCap(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	at := randJobsM(rng, MaxExhaustiveJobs, 3)
	if _, _, ok := BestPermutationM(at); !ok {
		t.Errorf("n=%d (at cap) must run exhaustively", MaxExhaustiveJobs)
	}
	over := randJobsM(rng, MaxExhaustiveJobs+1, 3)
	seq, span, ok := BestPermutationM(over)
	if ok {
		t.Errorf("n=%d (over cap) must refuse exhaustive search", MaxExhaustiveJobs+1)
	}
	want := ScheduleM(over)
	if !reflect.DeepEqual(seq, want) || span != MakespanM(want) {
		t.Error("over-cap fallback must be the ScheduleM heuristic sequence")
	}

	if _, _, ok := BestPermutationM(nil); !ok {
		t.Error("empty instance is trivially optimal, ok must be true")
	}
}

// MakespanM is bounded below by every per-machine stage sum and above
// by the fully serial sum, for any m.
func TestMakespanMBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		jobs := randJobsM(rng, 1+rng.Intn(8), 2+rng.Intn(4))
		span := MakespanM(ScheduleM(jobs))
		var serial float64
		for _, s := range SumStagesM(jobs) {
			if span < s-1e-9 {
				return false
			}
			serial += s
		}
		return span <= serial+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ---- three-machine cases (the mobile→edge→cloud shape) ----

func TestMakespanMRecurrence(t *testing.T) {
	// Hand-checked: jobs (2,3,1), (4,1,2).
	// c1: 2,6. c2: max(0,2)+3=5; max(5,6)+1=7. c3: max(0,5)+1=6; max(6,7)+2=9.
	seq := []JobM{{Stages: []float64{2, 3, 1}}, {Stages: []float64{4, 1, 2}}}
	if got := MakespanM(seq); got != 9 {
		t.Errorf("makespan = %g, want 9", got)
	}
	comps := CompletionsM(seq)
	if comps[0] != 6 || comps[1] != 9 {
		t.Errorf("completions = %v, want [6 9]", comps)
	}
	if MakespanM(nil) != 0 {
		t.Error("empty must be 0")
	}
}

func preservesJobs(t *testing.T, name string, sequence func([]JobM) []JobM, jobs []JobM) {
	t.Helper()
	seq := sequence(jobs)
	seen := map[int]bool{}
	for _, j := range seq {
		seen[j.ID] = true
	}
	if len(seq) != len(jobs) || len(seen) != len(jobs) {
		t.Errorf("%s dropped or duplicated jobs: %v", name, seq)
	}
	if sequence(nil) != nil {
		t.Errorf("%s: empty input must return nil", name)
	}
}

func TestCDSPreservesJobs(t *testing.T) {
	preservesJobs(t, "CDSM", CDSM, []JobM{
		{ID: 0, Stages: []float64{1, 2, 3}}, {ID: 1, Stages: []float64{3, 2, 1}}, {ID: 2, Stages: []float64{2, 2, 2}}})
}

func TestNEHPreservesJobs(t *testing.T) {
	preservesJobs(t, "NEHM", NEHM, []JobM{
		{ID: 0, Stages: []float64{9, 1, 1}}, {ID: 1, Stages: []float64{1, 9, 1}}, {ID: 2, Stages: []float64{1, 1, 9}}})
}

func TestScheduleMNearOptimalThreeMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	worstCDS, worstBest := 1.0, 1.0
	for trial := 0; trial < 200; trial++ {
		jobs := randJobsM(rng, 2+rng.Intn(6), 3)
		_, best, ok := BestPermutationM(jobs)
		if !ok {
			t.Fatalf("trial %d: exhaustive search refused at n=%d", trial, len(jobs))
		}
		cds := MakespanM(CDSM(jobs))
		combined := MakespanM(ScheduleM(jobs))
		if combined < best-1e-9 {
			t.Fatalf("trial %d: ScheduleM %g below exhaustive optimum %g", trial, combined, best)
		}
		if combined > cds+1e-9 {
			t.Fatalf("trial %d: ScheduleM %g worse than plain CDSM %g", trial, combined, cds)
		}
		if r := cds / best; r > worstCDS {
			worstCDS = r
		}
		if r := combined / best; r > worstBest {
			worstBest = r
		}
	}
	// Plain CDS strays up to ~30% on adversarial random instances;
	// the CDS+NEH combination stays within a few percent.
	if worstBest > 1.06 {
		t.Errorf("ScheduleM worst ratio %.3f over 200 trials, expected <= 1.06 (CDSM alone: %.3f)",
			worstBest, worstCDS)
	}
}

func TestCDSExactWhenThirdStageNegligible(t *testing.T) {
	// With stage 3 ≈ 0 the instance degenerates to two machines, where
	// the first CDS surrogate IS Johnson's rule: exact.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		jobs := randJobsM(rng, 2+rng.Intn(6), 3)
		for i := range jobs {
			jobs[i].Stages[2] *= 1e-10
		}
		_, best, _ := BestPermutationM(jobs)
		if got := MakespanM(CDSM(jobs)); math.Abs(got-best) > 1e-6 {
			t.Fatalf("trial %d: CDSM %g != optimum %g with negligible stage 3", trial, got, best)
		}
	}
}

// ---- reference sequencer (oracle) ----
//
// The direct-evaluation algorithms mshop.go ran before Taillard's
// acceleration and the incremental descent: NEH tries every insertion
// with a full MakespanM, the descent re-evaluates every swap in full.
// O(n³·m); they live here only, as what the production code is pinned
// against.

func refNEHM(jobs []JobM) []JobM {
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

func refSwapDescentM(seq []JobM) []JobM {
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

func refScheduleM(jobs []JobM) []JobM {
	cds := CDSM(jobs)
	neh := refNEHM(jobs)
	seq := cds
	if MakespanM(neh) < MakespanM(cds) {
		seq = neh
	}
	return refSwapDescentM(seq)
}

func idsM(seq []JobM) []int {
	out := make([]int, len(seq))
	for i, j := range seq {
		out[i] = j.ID
	}
	return out
}

// typedJobsM draws n jobs from `types` distinct random stage vectors
// (types <= 0: all distinct) — JPSChain's traffic is the 2-type case.
func typedJobsM(rng *rand.Rand, n, m, types int) []JobM {
	if types <= 0 {
		return randJobsM(rng, n, m)
	}
	protos := randJobsM(rng, types, m)
	jobs := make([]JobM, n)
	for i := range jobs {
		jobs[i] = JobM{ID: i, Stages: protos[rng.Intn(types)].Stages}
	}
	return jobs
}

// (a) Taillard's NEH is the direct NEH in exact arithmetic: on
// integer-valued stage times (every sum exact in float64) it returns
// the direct form's sequence, ties and all.
func TestNEHMMatchesDirectOnIntegers(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		jobs := randJobsM(rng, 1+rng.Intn(60), 1+rng.Intn(5))
		for i := range jobs {
			for k := range jobs[i].Stages {
				// Small range: plenty of exact ties.
				jobs[i].Stages[k] = float64(rng.Intn(20))
			}
		}
		if got, want := idsM(NEHM(jobs)), idsM(refNEHM(jobs)); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d m=%d): NEHM %v != direct %v", trial, len(jobs), len(jobs[0].Stages), got, want)
		}
	}
}

// (b) The descent's three shortcuts (cached prefix state, identical-job
// skip, monotone early reject) are exact on floats: from the same start
// it ends on the full-re-evaluation descent's sequence, whether the
// jobs are all distinct, all identical, or of a few types.
func TestSwapDescentMatchesFullReevaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 600; trial++ {
		n, m := 1+rng.Intn(60), 1+rng.Intn(5)
		jobs := typedJobsM(rng, n, m, trial%5) // 0: all distinct; 1: all identical; 2..4 types
		start := refNEHM(jobs)
		if trial%2 == 1 {
			start = cloneJobsM(jobs) // an unpolished start: many accepted swaps
		}
		want := idsM(refSwapDescentM(start))
		swapDescentM(start)
		if got := idsM(start); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d m=%d types=%d): descent %v != full re-evaluation %v",
				trial, n, m, trial%5, got, want)
		}
	}
}

// (d) What callers see of NEH's float tie-breaking (see nehOrder): on
// random float instances ScheduleM may return a different sequence
// than the direct form, as often better as worse — the mean makespan
// ratio is 1 to three digits — and always a permutation of its input.
func TestScheduleMRatioVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var sum float64
	worse, better, equal := 0, 0, 0
	const trials = 600
	for trial := 0; trial < trials; trial++ {
		n, m := 2+rng.Intn(60), 2+rng.Intn(4)
		jobs := typedJobsM(rng, n, m, (trial%2)*(1+rng.Intn(4))) // half all-distinct, half 1–4 types
		got := ScheduleM(jobs)
		seen := make([]bool, n)
		for _, j := range got {
			if j.ID < 0 || j.ID >= n || seen[j.ID] || !reflect.DeepEqual(j.Stages, jobs[j.ID].Stages) {
				t.Fatalf("trial %d: ScheduleM result is not a permutation of its input: %v", trial, idsM(got))
			}
			seen[j.ID] = true
		}
		if len(got) != n {
			t.Fatalf("trial %d: %d jobs in, %d out", trial, n, len(got))
		}
		r := MakespanM(got) / MakespanM(refScheduleM(jobs))
		sum += r
		switch {
		case r > 1:
			worse++
		case r < 1:
			better++
		default:
			equal++
		}
	}
	mean := sum / trials
	t.Logf("ScheduleM new/direct makespan over %d instances: mean %.6f, %d worse / %d better / %d equal",
		trials, mean, worse, better, equal)
	if mean < 0.999 || mean > 1.001 {
		t.Errorf("mean makespan ratio %.6f outside [0.999, 1.001]", mean)
	}
}

// A one-type instance — every job's stages element-wise == — comes back
// from ScheduleM exactly as the full CDS → NEH → strict compare →
// descent path returns it: the same IDs in the same order, the same
// stage bits. Covers shuffled IDs, m = 1 (no CDS surrogate) and one
// type whose two copies differ only in the sign of their zero stages.
func TestScheduleMOneTypeMatchesFullPath(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	sameType := func(n int, stages ...[]float64) []JobM {
		jobs := make([]JobM, n)
		for i, id := range rng.Perm(n) {
			jobs[i] = JobM{ID: 10 * id, Stages: stages[i%len(stages)]}
		}
		return jobs
	}
	type instance struct {
		name string
		jobs []JobM
	}
	var cases []instance
	for _, m := range []int{1, 2, 3, 5} {
		for _, n := range []int{1, 2, 7, 100} {
			st := randJobsM(rng, 1, m)[0].Stages
			cases = append(cases, instance{fmt.Sprintf("m=%d n=%d", m, n), sameType(n, st)})
		}
	}
	negZero := math.Copysign(0, -1)
	cases = append(cases, instance{"±0 stages", sameType(9, []float64{0, 2.5, negZero}, []float64{negZero, 2.5, 0})})
	for _, c := range cases {
		if err := sameBits(ScheduleM(c.jobs), fullPath(c.jobs)); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// fullPath is ScheduleM with neither shortcut: CDS against NEH, then
// the descent, whatever the instance.
func fullPath(jobs []JobM) []JobM {
	own, m := ownJobsM(jobs)
	if m == 0 {
		return own
	}
	return sequenceM(own, m, false)
}

// sameBits reports where got differs from want: an ID, a stage's bits
// or the makespan's bits.
func sameBits(got, want []JobM) error {
	if !reflect.DeepEqual(idsM(got), idsM(want)) {
		return fmt.Errorf("IDs %v, full path %v", idsM(got), idsM(want))
	}
	for i := range want {
		for k, v := range want[i].Stages {
			if math.Float64bits(got[i].Stages[k]) != math.Float64bits(v) {
				return fmt.Errorf("position %d stage %d = %v, full path %v", i, k, got[i].Stages[k], v)
			}
		}
	}
	if g, w := MakespanM(got), MakespanM(want); math.Float64bits(g) != math.Float64bits(w) {
		return fmt.Errorf("makespan %v, full path %v", g, w)
	}
	return nil
}

// ScheduleM stops at CDS once CDS meets the load bound, and returns
// what the full path returns, bit for bit, on 2 400 seeded instances:
// 1–4 kinds, m 2–5, n 1–120. Half of them give every kind the same
// leading stages and hand the kinds in runs, JPSChain's shape: there
// the bound is exact and CDS often meets it, and the test wants some
// instances of two kinds or more (past the one-type shortcut) that do. The rest draw kinds apart and mix them, with a NaN, an
// infinite or a negative stage now and then, where the bound is −Inf.
func TestScheduleMStopsAtBound(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	met := 0
	const trials = 2400
	for trial := 0; trial < trials; trial++ {
		n, m, nk := 1+rng.Intn(120), 2+rng.Intn(4), 1+rng.Intn(4)
		protos := randJobsM(rng, nk, m)
		runs := trial%2 == 0
		if runs {
			shared := 1 + rng.Intn(m-1)
			for _, p := range protos[1:] {
				copy(p.Stages[:shared], protos[0].Stages[:shared])
			}
		} else if trial%10 == 1 {
			protos[rng.Intn(nk)].Stages[rng.Intn(m)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}[rng.Intn(4)]
		}
		jobs := make([]JobM, n)
		for i := range jobs {
			k := rng.Intn(nk)
			if runs {
				k = i * nk / n
			}
			jobs[i] = JobM{ID: rng.Intn(1000), Stages: protos[k].Stages}
		}
		got := ScheduleM(jobs)
		if err := sameBits(got, fullPath(jobs)); err != nil {
			t.Fatalf("trial %d (n=%d m=%d kinds=%d): %v", trial, n, m, nk, err)
		}
		if own, _ := ownJobsM(jobs); !oneType(own) && MakespanM(CDSM(jobs)) == loadBound(multiset{jobs: own}) {
			met++
		}
	}
	t.Logf("CDS met the load bound on %d of %d instances with two kinds or more", met, trials)
	if met < trials/10 {
		t.Errorf("CDS met the load bound on %d of %d instances, want >= %d", met, trials, trials/10)
	}
}

// TwoKindScheduleM is ScheduleM on two kinds in two runs wherever it
// reports ok: the same IDs in the same order, the same stage bits and
// the same makespan bits, on 20 000 seeded instances — m 2–5, nx and ny
// 0–12. Stages are drawn from a few values, so surrogates tie, kinds
// share leading stages or come out element-wise ==, and zeros of both
// signs appear; every third instance gives each job its own copy of its
// kind. One instance in eight puts a NaN, an infinite or a negative
// stage into a kind with jobs, where the bound is −Inf and ok must be
// false.
func TestTwoKindScheduleMMatchesScheduleM(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	values := []float64{0, math.Copysign(0, -1), 0.1, 0.3, 1, 2, 2.5, 7}
	draw := func(m int) []float64 {
		st := make([]float64, m)
		for k := range st {
			st[k] = values[rng.Intn(len(values))]
			if rng.Intn(3) == 0 {
				st[k] = rng.Float64() * 10
			}
		}
		return st
	}
	const trials = 20000
	met, missed := 0, 0
	for trial := 0; trial < trials; trial++ {
		m, nx, ny := 2+rng.Intn(4), rng.Intn(13), rng.Intn(13)
		x, y := draw(m), draw(m)
		switch rng.Intn(4) {
		case 0:
			copy(y, x) // element-wise ==, not the same slice
		case 1:
			copy(y[:1+rng.Intn(m-1)], x) // shared leading stages
		}
		poisoned := trial%8 == 7 && nx+ny > 0
		if poisoned {
			kind := x
			if nx == 0 || (ny > 0 && rng.Intn(2) == 0) {
				kind = y
			}
			kind[rng.Intn(m)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}[rng.Intn(4)]
		}
		bound := LowerBoundM([][]float64{x, y}, []int{nx, ny})
		span, xFirst, ok := TwoKindScheduleM(x, nx, y, ny, bound)
		if poisoned {
			if ok {
				t.Fatalf("trial %d: x %v ×%d, y %v ×%d: ok with a non-finite or negative stage", trial, x, nx, y, ny)
			}
			continue
		}
		if !ok {
			missed++
			continue
		}
		met++
		jobs := make([]JobM, 0, nx+ny)
		for id := range nx + ny {
			st := y
			if id < nx {
				st = x
			}
			if trial%3 == 0 {
				st = slices.Clone(st)
			}
			jobs = append(jobs, JobM{ID: id, Stages: st})
		}
		blocks := append(slices.Clone(jobs[nx:]), jobs[:nx]...)
		if xFirst {
			blocks = slices.Clone(jobs)
		}
		want := ScheduleM(jobs)
		if err := sameBits(blocks, want); err != nil {
			t.Fatalf("trial %d: x %v ×%d, y %v ×%d, xFirst %v: %v", trial, x, nx, y, ny, xFirst, err)
		}
		if w := MakespanM(want); math.Float64bits(span) != math.Float64bits(w) {
			t.Fatalf("trial %d: x %v ×%d, y %v ×%d: span %v, ScheduleM's %v", trial, x, nx, y, ny, span, w)
		}
	}
	t.Logf("ok on %d finite instances, not on %d", met, missed)
	if met < trials/5 || missed < trials/10 {
		t.Errorf("ok on %d finite instances and not on %d; want >= %d and >= %d", met, missed, trials/5, trials/10)
	}
}

// LowerBoundM is sound at scale: at n = 20, 100 and 400, 1–4 kinds and
// m 2–5, the bound is <= the makespan of CDS's, NEH's and the full
// path's sequences and of 200 random permutations. Half the instances
// share leading stages (the exact branch), half do not (the shrunk one).
func TestLowerBoundMSoundAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, n := range []int{20, 100, 400} {
		for trial := 0; trial < 12; trial++ {
			m, nk := 2+rng.Intn(4), 1+rng.Intn(4)
			kinds, counts := make([][]float64, nk), make([]int, nk)
			for i := range kinds {
				kinds[i] = randJobsM(rng, 1, m)[0].Stages
				if trial%2 == 0 {
					kinds[i][0] = kinds[0][0]
				}
			}
			jobs := make([]JobM, n)
			for j := range jobs {
				i := rng.Intn(nk)
				counts[i]++
				jobs[j] = JobM{ID: j, Stages: kinds[i]}
			}
			lb := LowerBoundM(kinds, counts)
			check := func(name string, seq []JobM) {
				if span := MakespanM(seq); lb > span {
					t.Fatalf("n=%d trial %d: bound %v > %s makespan %v", n, trial, lb, name, span)
				}
			}
			check("CDS", CDSM(jobs))
			check("NEH", NEHM(jobs))
			check("full path", fullPath(jobs))
			perm := slices.Clone(jobs)
			for p := 0; p < 200; p++ {
				rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				check("permuted", perm)
			}
		}
	}
}

// (e) Scratch lives for one call and is a handful of flat matrices.
// ScheduleM at the paper's n=100 on a 3-machine chain allocates the
// input's copy, the scratch matrices, one slice per Johnson call
// inside CDS and the descent's kinds — nothing per row, per insertion
// or per trial — so the counts are exact: a reintroduced per-row or
// per-insertion allocation adds ~100. BenchmarkScheduleM's instance
// made 50 while the sorts went through reflection and Johnson grew its
// lists by append; the direct form made ~16 000. An instance whose CDS
// order meets the load bound — JPSChain's shape: two kinds in two runs,
// stage 0 shared — stops there, at the copy (2), CDS (4 and one per
// Johnson call) and its makespan row: exactly 9.
func TestScheduleMAllocs(t *testing.T) {
	a, b := []float64{5, 1, 0.5}, []float64{5, 2, 0.1}
	atBound := make([]JobM, 100)
	for i := range atBound {
		atBound[i] = JobM{ID: i, Stages: b}
		if i < 50 {
			atBound[i].Stages = a
		}
	}
	for _, c := range []struct {
		name  string
		jobs  []JobM
		want  float64
		exact bool
	}{
		{"two kinds", typedJobsM(rand.New(rand.NewSource(23)), 100, 3, 2), 19, false},
		{"all distinct", randJobsM(rand.New(rand.NewSource(23)), 100, 3), 25, false},
		{"BenchmarkScheduleM n=100", typedJobsM(rand.New(rand.NewSource(24)), 100, 3, 2), 19, false},
		{"CDS meets the load bound", atBound, 9, true},
	} {
		got := testing.AllocsPerRun(10, func() { ScheduleM(c.jobs) })
		if c.exact && got != c.want {
			t.Errorf("ScheduleM(n=100, m=3, %s) = %.0f allocs/run, want %.0f", c.name, got, c.want)
		} else if got > c.want {
			t.Errorf("ScheduleM(n=100, m=3, %s) = %.0f allocs/run, want <= %.0f", c.name, got, c.want)
		}
	}
	if got, lb := MakespanM(CDSM(atBound)), LowerBoundM([][]float64{a, b}, []int{50, 50}); got != lb {
		t.Errorf("the at-bound instance: CDS makespan %v, bound %v", got, lb)
	}
}

// Ragged jobs fail loudly at every sequencer's entry, in both
// directions, instead of an index panic deep in the recurrence (short
// job) or a silent truncation (long job).
func TestRaggedJobsPanic(t *testing.T) {
	short := []JobM{{ID: 0, Stages: []float64{1, 2, 3}}, {ID: 1, Stages: []float64{1, 2}}}
	long := []JobM{{ID: 0, Stages: []float64{1, 2, 3}}, {ID: 1, Stages: []float64{1, 2, 3, 4}}}
	entries := map[string]func([]JobM){
		"CDSM":             func(j []JobM) { CDSM(j) },
		"NEHM":             func(j []JobM) { NEHM(j) },
		"ScheduleM":        func(j []JobM) { ScheduleM(j) },
		"BestPermutationM": func(j []JobM) { BestPermutationM(j) },
	}
	for name, call := range entries {
		for want, jobs := range map[string][]JobM{
			"flowshop: job 1 has 2 stages, want 3": short,
			"flowshop: job 1 has 4 stages, want 3": long,
		} {
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%s: panic %v, want %q", name, got, want)
					}
				}()
				call(jobs)
			}()
		}
	}
	// The evaluators keep their degenerate results.
	if MakespanM(nil) != 0 || MakespanM([]JobM{{}}) != 0 || len(CompletionsM(nil)) != 0 {
		t.Error("MakespanM/CompletionsM: empty or zero-stage sequences must evaluate to 0")
	}
}

// n=400 beside n=100 makes the growth visible. The jobs are of two
// types, the shape of JPSChain's traffic, where NEH and the descent are
// both O(n²·m): ≈ 16× for 4× n (the direct form: 53×). On all-distinct
// jobs the descent's walk from i to j is cubic and dominates (≈ 40×).
func BenchmarkScheduleM(b *testing.B) {
	for _, n := range []int{100, 400} {
		jobs := typedJobsM(rand.New(rand.NewSource(24)), n, 3, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ScheduleM(jobs)
			}
		})
	}
}

// LowerBoundM is sound for MakespanM's floats: on random multisets of
// one to three kinds, m 1–5, n <= 7, stages spread log-uniformly over
// 1e-3…1e6, it never exceeds the exhaustive optimum. Half the instances
// give every kind the same first stages, the bound's exact branch;
// the rest draw them apart, its shrunk branch. An instance whose
// optimum runs one machine back to back from the least head to the
// least tail meets the bound in exact arithmetic, so the shrunk branch
// is tested where a rounding that the shrink missed would show:
// TestLowerBoundMSound counts those near-ties and wants some.
func TestLowerBoundMSound(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	stage := func() float64 { return 1e-3 * math.Pow(10, 9*rng.Float64()) }
	near := 0
	for trial := 0; trial < 4000; trial++ {
		m, nk, n := 1+rng.Intn(5), 1+rng.Intn(3), 1+rng.Intn(7)
		shared := 0
		if trial%2 == 0 {
			shared = 1 + rng.Intn(m)
		}
		kinds, counts := make([][]float64, nk), make([]int, nk)
		for i := range kinds {
			kinds[i] = make([]float64, m)
			for k := range kinds[i] {
				kinds[i][k] = stage()
				if i > 0 && k < shared {
					kinds[i][k] = kinds[0][k]
				}
			}
		}
		jobs := make([]JobM, n)
		for j := range jobs {
			i := rng.Intn(nk)
			counts[i]++
			jobs[j] = JobM{ID: j, Stages: kinds[i]}
		}
		_, span, _ := BestPermutationM(jobs)
		lb := LowerBoundM(kinds, counts)
		if lb > span {
			t.Fatalf("trial %d: kinds %v counts %v: bound %v > optimum %v", trial, kinds, counts, lb, span)
		}
		if lb >= span*(1-1e-12) {
			near++
		}
	}
	if near < 100 {
		t.Errorf("%d of 4000 instances within 1e-12 of their bound, want >= 100", near)
	}
}

// A stage LowerBoundM cannot bound from returns -Inf, which never
// prunes; a kind with no jobs is not looked at.
func TestLowerBoundMRefuses(t *testing.T) {
	ok := []float64{1, 2, 3}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		st := []float64{1, bad, 3}
		if got := LowerBoundM([][]float64{ok, st}, []int{2, 1}); !math.IsInf(got, -1) {
			t.Errorf("stage %v: bound %v, want -Inf", bad, got)
		}
		if got := LowerBoundM([][]float64{ok, st}, []int{2, 0}); got != MakespanM([]JobM{{Stages: ok}, {Stages: ok}}) {
			t.Errorf("stage %v in a kind with no jobs: bound %v, want the other kind's makespan", bad, got)
		}
	}
	if got := LowerBoundM([][]float64{ok}, []int{0}); got != 0 {
		t.Errorf("no jobs: bound %v, want 0", got)
	}
	defer func() {
		if got, want := recover(), "flowshop: kind 1 has 2 stages, want 3"; got != want {
			t.Errorf("ragged kinds: panic %v, want %q", got, want)
		}
	}()
	LowerBoundM([][]float64{ok, {1, 2}}, []int{1, 1})
}

// cloneJobsM deep-copies a job slice, Stages included (one backing
// array, each slice capped so an append cannot reach its neighbour):
// every job gets a copy of its own, whatever its input shared, so a
// fixture can mutate one job's stages without touching another's.
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
