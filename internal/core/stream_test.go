package core

import (
	"math"
	"testing"

	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

func alexCurve4G(t *testing.T) *profile.Curve {
	t.Helper()
	pi, gpu := devices()
	return profile.BuildCurve(models.MustBuild("alexnet"), pi, gpu, netsim.FourG, tensor.Float32)
}

func TestPlanStreamMixFraction(t *testing.T) {
	c := alexCurve4G(t)
	n := 1000
	plan, err := PlanStream(c, PeriodicReleases(n, 300))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != n {
		t.Fatalf("planned %d jobs", len(plan.Jobs))
	}
	// Count frames at the earlier cut; must track MixFraction within
	// one job (error diffusion).
	search, idx, _ := SearchCurve(c)
	prevCut := idx[search.LStar-1]
	count := 0
	for _, j := range plan.Jobs {
		if j.Cut == prevCut {
			count++
		}
	}
	want := plan.MixFraction * float64(n)
	if math.Abs(float64(count)-want) > 1 {
		t.Errorf("frames at l*-1: %d, want ~%.1f", count, want)
	}
	// Every prefix within one job of the ideal ratio.
	run := 0
	for i, j := range plan.Jobs {
		if j.Cut == prevCut {
			run++
		}
		ideal := plan.MixFraction * float64(i+1)
		if math.Abs(float64(run)-ideal) > 1+1e-9 {
			t.Fatalf("prefix %d drifted: %d vs ideal %.2f", i+1, run, ideal)
		}
	}
}

func TestPlanStreamMatchesBatchAsymptotics(t *testing.T) {
	// With all releases at 0, the stream plan is a batch: its mix
	// average must match JPS's average makespan within a small factor.
	c := alexCurve4G(t)
	n := 200
	plan, err := PlanStream(c, make([]float64, n))
	if err != nil {
		t.Fatal(err)
	}
	jps, err := JPS(c, n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.SustainableMs-jps.AvgMs()) > jps.AvgMs()*0.05 {
		t.Errorf("stream steady-state %.1f vs batch avg %.1f", plan.SustainableMs, jps.AvgMs())
	}
}

func TestPlanStreamSustainability(t *testing.T) {
	c := alexCurve4G(t)
	plan, err := PlanStream(c, PeriodicReleases(10, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Sustainable(plan.SustainableMs + 1) {
		t.Error("interval above bound must be sustainable")
	}
	if plan.Sustainable(plan.SustainableMs - 1) {
		t.Error("interval below bound must not be sustainable")
	}
	// JPS mixing must sustain a strictly higher frame rate than
	// local-only execution (whose bound is the full mobile latency).
	if plan.SustainableMs >= c.TotalMobileMs() {
		t.Errorf("stream bound %.1f not better than local-only %.1f",
			plan.SustainableMs, c.TotalMobileMs())
	}
}

func TestPlanStreamErrors(t *testing.T) {
	c := alexCurve4G(t)
	if _, err := PlanStream(c, nil); err == nil {
		t.Error("empty stream must error")
	}
	if _, err := PlanStream(c, []float64{-5}); err == nil {
		t.Error("negative release must error")
	}
}

func TestPeriodicReleases(t *testing.T) {
	rel := PeriodicReleases(4, 33.3)
	if len(rel) != 4 || rel[0] != 0 || math.Abs(rel[3]-99.9) > 1e-9 {
		t.Errorf("releases = %v", rel)
	}
}

func TestPoissonReleases(t *testing.T) {
	rel := PoissonReleases(500, 100, 7)
	if len(rel) != 500 || rel[0] != 0 {
		t.Fatalf("releases start = %v len = %d", rel[0], len(rel))
	}
	// Sorted, and mean gap near the requested mean.
	var sum float64
	for i := 1; i < len(rel); i++ {
		gap := rel[i] - rel[i-1]
		if gap < 0 {
			t.Fatal("releases must be non-decreasing")
		}
		sum += gap
	}
	mean := sum / float64(len(rel)-1)
	if mean < 80 || mean > 120 {
		t.Errorf("mean gap = %.1f, want ~100", mean)
	}
	// Deterministic in seed.
	again := PoissonReleases(500, 100, 7)
	for i := range rel {
		if rel[i] != again[i] {
			t.Fatal("same seed must reproduce the stream")
		}
	}
	other := PoissonReleases(500, 100, 8)
	if rel[100] == other[100] {
		t.Error("different seeds should differ")
	}
}

func TestPlanStreamPoissonBurstiness(t *testing.T) {
	// At the same average rate, Poisson arrivals queue worse than
	// periodic ones — sanity for the burstiness story.
	c := alexCurve4G(t)
	n := 80
	base, err := PlanStream(c, PeriodicReleases(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	interval := base.SustainableMs * 1.1
	if !base.Sustainable(interval) {
		t.Fatal("interval should be sustainable")
	}
	// Both plans share the mix; only releases differ.
	per, err := PlanStream(c, PeriodicReleases(n, interval))
	if err != nil {
		t.Fatal(err)
	}
	poi, err := PlanStream(c, PoissonReleases(n, interval, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(per.Jobs) != n || len(poi.Jobs) != n {
		t.Fatal("job counts wrong")
	}
}
