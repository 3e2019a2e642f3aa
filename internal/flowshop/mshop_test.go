package flowshop

import (
	"math"
	"math/rand"
	"reflect"
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
