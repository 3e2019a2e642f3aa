package sim

import (
	"math"
	"testing"

	"dnnjps/internal/core"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

func TestReleaseTimesRespected(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Priority: 0, ReleaseMs: 0, Stages: []StageSpec{{ResMobile, 5}}},
		{ID: 1, Priority: 1, ReleaseMs: 100, Stages: []StageSpec{{ResMobile, 5}}},
	}
	res, err := Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions[0] != 5 {
		t.Errorf("job 0 done at %g, want 5", res.Completions[0])
	}
	if res.Completions[1] != 105 {
		t.Errorf("job 1 done at %g, want 105 (released at 100)", res.Completions[1])
	}
	// Mobile lane must be idle between the two jobs.
	g := res.Gantt[ResMobile]
	if len(g) != 2 || g[1].Start != 100 {
		t.Errorf("gantt = %+v", g)
	}
}

func TestNegativeReleaseRejected(t *testing.T) {
	if _, err := Run([]JobSpec{{ReleaseMs: -1, Stages: []StageSpec{{ResMobile, 1}}}}); err == nil {
		t.Error("negative release must error")
	}
}

func TestLaterReleaseCanOvertakeBusyResource(t *testing.T) {
	// Job 0 occupies mobile 0..10; job 1 (released at 2) queues and
	// runs 10..13 — FIFO by ready time.
	jobs := []JobSpec{
		{ID: 0, ReleaseMs: 0, Stages: []StageSpec{{ResMobile, 10}}},
		{ID: 1, ReleaseMs: 2, Stages: []StageSpec{{ResMobile, 3}}},
	}
	res, err := Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions[1] != 13 {
		t.Errorf("queued job done at %g, want 13", res.Completions[1])
	}
}

func TestStreamPlanSimulation(t *testing.T) {
	pi, gpu := profile.RaspberryPi4(), profile.CloudGPU()
	curve := profile.BuildCurve(models.MustBuild("alexnet"), pi, gpu, netsim.FourG, tensor.Float32)
	n := 60

	// Comfortably sustainable interval: per-frame latency stays
	// bounded (no queue growth) — the last frame's sojourn time is
	// close to the first's.
	plan, err := core.PlanStream(curve, core.PeriodicReleases(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	interval := plan.SustainableMs * 1.2
	plan, err = core.PlanStream(curve, core.PeriodicReleases(n, interval))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(FromStreamPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	var worstSojourn float64
	for _, j := range plan.Jobs {
		s := res.Completions[j.ID] - j.ReleaseMs
		if s > worstSojourn {
			worstSojourn = s
		}
	}
	// Bounded: no frame waits more than a few service times.
	if worstSojourn > 5*plan.SustainableMs {
		t.Errorf("sustainable stream has unbounded-looking sojourn %.1f (service %.1f)",
			worstSojourn, plan.SustainableMs)
	}

	// Overloaded interval: sojourn of the last frame must grow roughly
	// linearly with position (queue build-up).
	overload, err := core.PlanStream(curve, core.PeriodicReleases(n, plan.SustainableMs*0.5))
	if err != nil {
		t.Fatal(err)
	}
	resO, err := Run(FromStreamPlan(overload))
	if err != nil {
		t.Fatal(err)
	}
	first := resO.Completions[overload.Jobs[0].ID] - overload.Jobs[0].ReleaseMs
	last := resO.Completions[overload.Jobs[n-1].ID] - overload.Jobs[n-1].ReleaseMs
	if last < first+float64(n-1)*0.3*plan.SustainableMs {
		t.Errorf("overloaded stream should queue up: first sojourn %.1f, last %.1f", first, last)
	}
	if math.IsNaN(last) {
		t.Fatal("missing completion")
	}
}

// Poisson arrivals at the same mean rate queue worse than periodic
// ones — burstiness costs sojourn time.
func TestPoissonBurstierThanPeriodic(t *testing.T) {
	pi, gpu := profile.RaspberryPi4(), profile.CloudGPU()
	curve := profile.BuildCurve(models.MustBuild("alexnet"), pi, gpu, netsim.FourG, tensor.Float32)
	n := 100
	base, err := core.PlanStream(curve, core.PeriodicReleases(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	interval := base.SustainableMs * 1.15

	maxSojourn := func(releases []float64) float64 {
		plan, err := core.PlanStream(curve, releases)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(FromStreamPlan(plan))
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, j := range plan.Jobs {
			if s := res.Completions[j.ID] - j.ReleaseMs; s > worst {
				worst = s
			}
		}
		return worst
	}
	periodic := maxSojourn(core.PeriodicReleases(n, interval))
	poisson := maxSojourn(core.PoissonReleases(n, interval, 21))
	if poisson <= periodic {
		t.Errorf("Poisson max sojourn %.1f should exceed periodic %.1f at equal mean rate",
			poisson, periodic)
	}
}
