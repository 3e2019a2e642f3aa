package flowshop

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
	fullPath := func(jobs []JobM) []JobM {
		own, m := ownJobsM(jobs)
		seq, neh := cdsOrder(own, m), nehOrder(own, m)
		c := make([]float64, m)
		if makespanInto(c, neh) < makespanInto(c, seq) {
			seq = neh
		}
		swapDescentM(seq)
		return seq
	}
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
		got, want := ScheduleM(c.jobs), fullPath(c.jobs)
		if !reflect.DeepEqual(idsM(got), idsM(want)) {
			t.Errorf("%s: IDs %v, full path %v", c.name, idsM(got), idsM(want))
			continue
		}
		for i := range want {
			for k, v := range want[i].Stages {
				if math.Float64bits(got[i].Stages[k]) != math.Float64bits(v) {
					t.Errorf("%s: position %d stage %d = %v, full path %v", c.name, i, k, got[i].Stages[k], v)
				}
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
// lists by append; the direct form made ~16 000.
func TestScheduleMAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		jobs []JobM
		want float64
	}{
		{"two kinds", typedJobsM(rand.New(rand.NewSource(23)), 100, 3, 2), 19},
		{"all distinct", randJobsM(rand.New(rand.NewSource(23)), 100, 3), 25},
		{"BenchmarkScheduleM n=100", typedJobsM(rand.New(rand.NewSource(24)), 100, 3, 2), 19},
	} {
		if got := testing.AllocsPerRun(10, func() { ScheduleM(c.jobs) }); got > c.want {
			t.Errorf("ScheduleM(n=100, m=3, %s) = %.0f allocs/run, want <= %.0f", c.name, got, c.want)
		}
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
