package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dnnjps/internal/core"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

func twoStage(seq []flowshop.Job) []JobSpec {
	jobs := make([]JobSpec, len(seq))
	for i, j := range seq {
		jobs[i] = JobSpec{
			ID:       j.ID,
			Priority: i,
			Stages: []StageSpec{
				{Resource: ResMobile, Ms: j.A},
				{Resource: ResUplink, Ms: j.B},
			},
		}
	}
	return jobs
}

func TestRunMatchesFlowshopRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		seq := make([]flowshop.Job, n)
		for i := range seq {
			seq[i] = flowshop.Job{ID: i, A: rng.Float64() * 10, B: rng.Float64() * 10}
		}
		res, err := Run(twoStage(seq))
		if err != nil {
			t.Fatal(err)
		}
		if want := flowshop.Makespan(seq); math.Abs(res.Makespan-want) > 1e-9 {
			t.Fatalf("trial %d: sim %g != recurrence %g", trial, res.Makespan, want)
		}
		comps := flowshop.Completions(seq)
		for i, j := range seq {
			if math.Abs(res.Completions[j.ID]-comps[i]) > 1e-9 {
				t.Fatalf("trial %d: job %d completion %g != %g", trial, j.ID, res.Completions[j.ID], comps[i])
			}
		}
	}
}

// The m-machine recurrence that prices k-way chain plans must agree
// with the discrete-event model, both on random instances and on a
// real planner output routed through the FromChainPlan bridge.
func TestFromChainPlanMatchesMakespanM(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		m := 2 + rng.Intn(4)
		seq := make([]flowshop.JobM, n)
		cuts := make([][]int, n)
		for i := range seq {
			st := make([]float64, m)
			for k := range st {
				st[k] = rng.Float64() * 10
			}
			seq[i] = flowshop.JobM{ID: i, Stages: st}
			cuts[i] = make([]int, m-1)
		}
		plan := &core.ChainPlan{Method: "test", Cuts: cuts, Sequence: seq,
			Makespan: flowshop.MakespanM(seq)}
		res, err := Run(FromChainPlan(plan))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Makespan-plan.Makespan) > 1e-9 {
			t.Fatalf("trial %d (n=%d m=%d): sim %g != recurrence %g",
				trial, n, m, res.Makespan, plan.Makespan)
		}
		comps := flowshop.CompletionsM(seq)
		for i, j := range seq {
			if math.Abs(res.Completions[j.ID]-comps[i]) > 1e-9 {
				t.Fatalf("trial %d: job %d completion %g != %g",
					trial, j.ID, res.Completions[j.ID], comps[i])
			}
		}
	}

	g := models.MustBuild("alexnet")
	chain := core.Chain{
		Devices: []profile.Device{profile.RaspberryPi4(), profile.CloudGPU().Scaled(0.25), profile.CloudGPU()},
		Links: []netsim.Channel{
			netsim.FourG,
			{Name: "wan-backhaul", UplinkMbps: netsim.FourG.UplinkMbps / 2, SetupMs: 15},
		},
		DType: tensor.Float32,
	}
	plan, err := core.JPSChain(g, chain, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(FromChainPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-plan.Makespan) > 1e-6 {
		t.Errorf("live plan: sim %g != planner %g", res.Makespan, plan.Makespan)
	}
}

func TestRunPaperExample(t *testing.T) {
	seq := []flowshop.Job{{ID: 0, A: 4, B: 6}, {ID: 1, A: 7, B: 2}}
	res, err := Run(twoStage(seq))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 13 {
		t.Errorf("makespan = %g, want 13", res.Makespan)
	}
}

func TestResourceExclusivity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	seq := make([]flowshop.Job, 10)
	for i := range seq {
		seq[i] = flowshop.Job{ID: i, A: rng.Float64() * 5, B: rng.Float64() * 5}
	}
	res, err := Run(twoStage(seq))
	if err != nil {
		t.Fatal(err)
	}
	for resName, ivs := range res.Gantt {
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Start < ivs[i-1].End-1e-9 {
				t.Errorf("%s: overlapping intervals %+v %+v", resName, ivs[i-1], ivs[i])
			}
		}
	}
}

func TestBusyAndUtilization(t *testing.T) {
	seq := []flowshop.Job{{ID: 0, A: 3, B: 1}, {ID: 1, A: 2, B: 4}}
	res, err := Run(twoStage(seq))
	if err != nil {
		t.Fatal(err)
	}
	if res.BusyMs[ResMobile] != 5 || res.BusyMs[ResUplink] != 5 {
		t.Errorf("busy = %v", res.BusyMs)
	}
	if u := res.Utilization(ResMobile); u <= 0 || u > 1 {
		t.Errorf("utilization = %g", u)
	}
	if res.Utilization("nonexistent") != 0 {
		t.Error("unknown resource utilization must be 0")
	}
	empty := &Result{}
	if empty.Utilization(ResMobile) != 0 {
		t.Error("empty result utilization must be 0")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run([]JobSpec{{Stages: []StageSpec{{Resource: "", Ms: 1}}}}); err == nil {
		t.Error("empty resource name must error")
	}
	if _, err := Run([]JobSpec{{Stages: []StageSpec{{Resource: "r", Ms: -1}}}}); err == nil {
		t.Error("negative duration must error")
	}
}

func TestEmptyAndStagelessJobs(t *testing.T) {
	res, err := Run(nil)
	if err != nil || res.Makespan != 0 {
		t.Errorf("empty run: %v %v", res, err)
	}
	res, err = Run([]JobSpec{{ID: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions[7] != 0 {
		t.Error("stageless job completes at 0")
	}
}

// Regression: a stageless job completes at its release time, and that
// completion must bound the makespan like any other. Run previously
// recorded the completion but left Makespan untouched, so a batch
// whose latest event was an empty job reported an early makespan.
func TestStagelessJobBoundsMakespan(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Stages: []StageSpec{{Resource: ResMobile, Ms: 3}}},
		{ID: 1, ReleaseMs: 10}, // stageless, released after job 0 finishes
	}
	res, err := Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions[1] != 10 {
		t.Errorf("stageless completion = %g, want 10", res.Completions[1])
	}
	if res.Makespan != 10 {
		t.Errorf("makespan = %g, want 10 (stageless completion must count)", res.Makespan)
	}
	// A stageless job that completes before the real work must not
	// drag the makespan in either direction.
	res, err = Run([]JobSpec{
		{ID: 0, ReleaseMs: 1},
		{ID: 1, Stages: []StageSpec{{Resource: ResMobile, Ms: 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 5 {
		t.Errorf("makespan = %g, want 5", res.Makespan)
	}
}

// Utilization is busy time over makespan, exactly.
func TestUtilizationValues(t *testing.T) {
	res, err := Run([]JobSpec{
		{ID: 0, Stages: []StageSpec{{ResMobile, 4}, {ResUplink, 2}}},
		{ID: 1, Stages: []StageSpec{{ResMobile, 4}, {ResUplink, 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mobile: 8 busy over makespan 10; uplink: 4 over 10.
	if res.Makespan != 10 {
		t.Fatalf("makespan = %g, want 10", res.Makespan)
	}
	if u := res.Utilization(ResMobile); math.Abs(u-0.8) > 1e-12 {
		t.Errorf("mobile utilization = %g, want 0.8", u)
	}
	if u := res.Utilization(ResUplink); math.Abs(u-0.4) > 1e-12 {
		t.Errorf("uplink utilization = %g, want 0.4", u)
	}
}

// Gantt intervals come back sorted by start time per resource, even
// when priorities make later-submitted jobs run first.
func TestGanttIntervalOrdering(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Priority: 3, Stages: []StageSpec{{ResMobile, 2}, {ResUplink, 1}}},
		{ID: 1, Priority: 1, Stages: []StageSpec{{ResMobile, 1}, {ResUplink, 4}}},
		{ID: 2, Priority: 2, Stages: []StageSpec{{ResMobile, 3}, {ResUplink, 2}}},
	}
	res, err := Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for resName, ivs := range res.Gantt {
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Start < ivs[i-1].Start {
				t.Errorf("%s: intervals out of order: %+v before %+v", resName, ivs[i-1], ivs[i])
			}
		}
	}
	// Priority order: job 1 first on mobile.
	if res.Gantt[ResMobile][0].JobID != 1 {
		t.Errorf("first mobile interval = %+v, want job 1", res.Gantt[ResMobile][0])
	}
}

func TestZeroDurationStagesPreserveOrder(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Priority: 0, Stages: []StageSpec{{ResMobile, 0}, {ResUplink, 5}}},
		{ID: 1, Priority: 1, Stages: []StageSpec{{ResMobile, 0}, {ResUplink, 5}}},
	}
	res, err := Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions[0] != 5 || res.Completions[1] != 10 {
		t.Errorf("completions = %v, want 5/10 in priority order", res.Completions)
	}
	// Zero stages leave no Gantt footprint.
	if len(res.Gantt[ResMobile]) != 0 {
		t.Errorf("zero-duration stages must not appear in Gantt: %v", res.Gantt[ResMobile])
	}
}

func TestPriorityBreaksSimultaneousReady(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Priority: 2, Stages: []StageSpec{{ResMobile, 3}}},
		{ID: 1, Priority: 1, Stages: []StageSpec{{ResMobile, 3}}},
		{ID: 2, Priority: 0, Stages: []StageSpec{{ResMobile, 3}}},
	}
	res, err := Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions[2] != 3 || res.Completions[1] != 6 || res.Completions[0] != 9 {
		t.Errorf("priority order violated: %v", res.Completions)
	}
}

// The headline validation: for every paper model and channel, the
// three-stage simulation of a JPS plan matches the two-stage analytic
// makespan up to the (small) cloud tail.
func TestThreeStageSimMatchesAnalyticPlans(t *testing.T) {
	pi, gpu := profile.RaspberryPi4(), profile.CloudGPU()
	for _, name := range models.PaperModels() {
		g := models.MustBuild(name)
		for _, ch := range netsim.Presets() {
			curve := profile.BuildCurve(g, pi, gpu, ch, tensor.Float32)
			for _, plan := range plansFor(t, curve, 24) {
				res, err := Run(FromPlan(plan))
				if err != nil {
					t.Fatalf("%s@%s %s: %v", name, ch.Name, plan.Method, err)
				}
				// Simulated >= analytic (cloud adds), and the excess is
				// bounded by the whole-model cloud time.
				excess := res.Makespan - plan.Makespan
				if excess < -1e-6 {
					t.Errorf("%s@%s %s: sim %g below analytic %g",
						name, ch.Name, plan.Method, res.Makespan, plan.Makespan)
				}
				if maxCloud := curve.CloudMs[0]; excess > maxCloud+1e-6 {
					t.Errorf("%s@%s %s: cloud excess %g exceeds whole-model cloud %g",
						name, ch.Name, plan.Method, excess, maxCloud)
				}
			}
		}
	}
}

func plansFor(t *testing.T, curve *profile.Curve, n int) []*core.Plan {
	t.Helper()
	var out []*core.Plan
	for _, fn := range []func(*profile.Curve, int) (*core.Plan, error){core.JPS, core.PO, core.CO, core.LO} {
		p, err := fn(curve, n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestFromGeneralPlan(t *testing.T) {
	g := models.MustBuild("googlenet")
	pi, gpu := profile.RaspberryPi4(), profile.CloudGPU()
	gp, err := core.PlanGeneral(g, pi, gpu, netsim.WiFi, tensor.Float32, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(FromGeneralPlan(gp))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-gp.Makespan) > 1e-6 {
		t.Errorf("sim %g != general plan makespan %g", res.Makespan, gp.Makespan)
	}
}

// Property: makespan is always >= the busiest resource's total work
// and >= any single job's serial length.
func TestMakespanLowerBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		jobs := make([]JobSpec, n)
		for i := range jobs {
			jobs[i] = JobSpec{
				ID: i, Priority: i,
				Stages: []StageSpec{
					{ResMobile, rng.Float64() * 5},
					{ResUplink, rng.Float64() * 5},
					{ResCloud, rng.Float64() * 2},
				},
			}
		}
		res, err := Run(jobs)
		if err != nil {
			return false
		}
		for _, busy := range res.BusyMs {
			if res.Makespan < busy-1e-9 {
				return false
			}
		}
		for _, j := range jobs {
			var serial float64
			for _, s := range j.Stages {
				serial += s.Ms
			}
			if res.Makespan < serial-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FromDurations with zero cloud times must reduce to the two-stage
// flow-shop recurrence, and short g/cloud slices must read as zeros.
func TestFromDurations(t *testing.T) {
	f := []float64{4, 7}
	g := []float64{6, 2}
	res, err := Run(FromDurations(f, g, nil))
	if err != nil {
		t.Fatal(err)
	}
	seq := []flowshop.Job{{ID: 0, A: 4, B: 6}, {ID: 1, A: 7, B: 2}}
	if want := flowshop.Makespan(seq); math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %g, want %g", res.Makespan, want)
	}

	withCloud, err := Run(FromDurations(f, g, []float64{3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if withCloud.Makespan <= res.Makespan {
		t.Errorf("cloud stage must extend the makespan: %g vs %g", withCloud.Makespan, res.Makespan)
	}

	jobs := FromDurations([]float64{1, 2, 3}, []float64{5}, nil)
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	if jobs[1].Stages[1].Ms != 0 || jobs[2].Stages[2].Ms != 0 {
		t.Error("missing g/cloud entries must read as zero")
	}
}
