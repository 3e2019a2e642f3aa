package estimator

import (
	"math"
	"math/rand"
	"testing"
)

// feed pushes a run of samples at the given true rate with bounded
// multiplicative jitter, returning how many change points fired.
func feed(e *Estimator, rng *rand.Rand, mbps, jitter float64, n int, bytes int) int {
	fired := 0
	for i := 0; i < n; i++ {
		rate := mbps * (1 + jitter*(2*rng.Float64()-1))
		durMs := float64(bytes) * 8 / (rate * 1000)
		if _, ok := e.AddUpload(bytes, durMs); ok {
			fired++
		}
	}
	return fired
}

// TestEWMAWithinSampleWindow is the convexity property: the estimate
// after any prefix of samples is a convex combination of the samples
// seen so far, so it must lie within [min, max] of that window. Swept
// over seeds, rates, and sample sizes.
func TestEWMAWithinSampleWindow(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New(Config{})
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 200; i++ {
			bytes := 1 + rng.Intn(1<<20)
			durMs := 0.01 + 100*rng.Float64()
			mbps := float64(bytes) * 8 / (durMs * 1000)
			e.AddUpload(bytes, durMs)
			if mbps < lo {
				lo = mbps
			}
			if mbps > hi {
				hi = mbps
			}
			got, samples := e.Mbps()
			if samples != i+1 {
				t.Fatalf("seed %d sample %d: samples = %d", seed, i, samples)
			}
			const eps = 1e-9
			if got < lo*(1-eps)-eps || got > hi*(1+eps)+eps {
				t.Fatalf("seed %d sample %d: estimate %.6f outside window [%.6f, %.6f]",
					seed, i, got, lo, hi)
			}
		}
	}
}

// TestNoChangePointUnderConstantRateJitter: bounded jitter strictly
// inside the drift dead band must never accumulate into a change
// point, whatever the seed.
func TestNoChangePointUnderConstantRateJitter(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, mbps := range []float64{1.1, 5.85, 18.88} {
			e := New(cfg)
			// ±10% multiplicative jitter; residuals against a converged
			// EWMA stay within ~±2·jitter/(1+... ) — inside Drift 0.15 is
			// the contract DefaultConfig documents for ±10%.
			if fired := feed(e, rng, mbps, 0.10, 500, 64<<10); fired != 0 {
				t.Errorf("seed %d rate %.2f: %d change points under constant-rate jitter, want 0",
					seed, mbps, fired)
			}
			got, _ := e.Mbps()
			if got < mbps*0.9 || got > mbps*1.1 {
				t.Errorf("seed %d rate %.2f: estimate %.3f drifted outside jitter band", seed, mbps, got)
			}
		}
	}
}

// TestChangePointOncePerStep: each scripted step transition — down,
// up, and a sawtooth of both — fires exactly one change point, and the
// snapped estimate lands on the new regime.
func TestChangePointOncePerStep(t *testing.T) {
	steps := []struct {
		name  string
		rates []float64
	}{
		{"step-down", []float64{12, 2}},
		{"step-up", []float64{2, 12}},
		{"sawtooth", []float64{12, 2, 12, 2}},
		{"two-step-down", []float64{12, 6, 2}},
	}
	for _, tc := range steps {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := New(Config{})
			want := 0
			for phase, rate := range tc.rates {
				fired := feed(e, rng, rate, 0.05, 30, 64<<10)
				if phase > 0 {
					want++
				}
				if got := len(e.ChangePoints()); got != want {
					t.Fatalf("%s seed %d after phase %d: %d change points, want %d (fired %d this phase)",
						tc.name, seed, phase, got, want, fired)
				}
				est, _ := e.Mbps()
				if est < rate*0.85 || est > rate*1.15 {
					t.Fatalf("%s seed %d phase %d: estimate %.3f not tracking rate %.3f",
						tc.name, seed, phase, est, rate)
				}
			}
			// Directions must match the step signs.
			cps := e.ChangePoints()
			for i, cp := range cps {
				wantDir := Down
				if tc.rates[i+1] > tc.rates[i] {
					wantDir = Up
				}
				if cp.Direction != wantDir {
					t.Errorf("%s seed %d: change point %d direction %v, want %v",
						tc.name, seed, i, cp.Direction, wantDir)
				}
			}
		}
	}
}

// TestSlowRampTracks: a gradual 12→2 ramp must keep the estimate
// inside the ramp envelope and end near the final rate; the detector
// may fire along the way (each fire re-anchors) but must not fire
// after the ramp settles.
func TestSlowRampTracks(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New(Config{})
		const rampSteps = 100
		for i := 0; i < rampSteps; i++ {
			rate := 12 - 10*float64(i)/float64(rampSteps-1)
			feed(e, rng, rate, 0.05, 1, 64<<10)
		}
		// A few samples of grace: residual CUSUM evidence accumulated
		// during the ramp's tail may legitimately fire just after it
		// stops, and the accumulators drain by Drift per steady sample.
		feed(e, rng, 2, 0.05, 10, 64<<10)
		settled := len(e.ChangePoints())
		feed(e, rng, 2, 0.05, 100, 64<<10)
		if got := len(e.ChangePoints()); got != settled {
			t.Errorf("seed %d: %d change points after the ramp settled (had %d)", seed, got, settled)
		}
		est, _ := e.Mbps()
		if est < 2*0.85 || est > 2*1.15 {
			t.Errorf("seed %d: post-ramp estimate %.3f, want ≈2", seed, est)
		}
	}
}

// TestDegenerateUploadsRejected: zero/negative sizes and durations,
// NaN and Inf must neither panic, nor count, nor move the estimate.
func TestDegenerateUploadsRejected(t *testing.T) {
	e := New(Config{})
	e.AddUpload(64<<10, 50)
	want, _ := e.Mbps()
	for _, s := range []ReplaySample{
		{Bytes: 0, DurMs: 50}, {Bytes: -1, DurMs: 50},
		{Bytes: 1024, DurMs: 0}, {Bytes: 1024, DurMs: -3},
		{Bytes: 1024, DurMs: math.NaN()}, {Bytes: 1024, DurMs: math.Inf(1)},
		{Bytes: 1024, DurMs: math.Inf(-1)}, {Bytes: 1024, DurMs: 1e-320},
	} {
		if _, ok := e.AddUpload(s.Bytes, s.DurMs); ok {
			t.Errorf("degenerate sample %+v fired a change point", s)
		}
	}
	got, n := e.Mbps()
	if got != want || n != 1 {
		t.Errorf("degenerate samples moved the estimate: (%f, %d), want (%f, 1)", got, n, want)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("estimate went non-finite: %f", got)
	}
}

// TestNilEstimatorSafe: the runtime attaches the estimator optionally;
// every method must be a no-op on nil.
func TestNilEstimatorSafe(t *testing.T) {
	var e *Estimator
	if _, ok := e.AddUpload(1024, 10); ok {
		t.Error("nil AddUpload fired")
	}
	if mbps, n := e.Mbps(); mbps != 0 || n != 0 {
		t.Error("nil Mbps not zero")
	}
	if cps := e.ChangePoints(); cps != nil {
		t.Error("nil ChangePoints not nil")
	}
}

// TestConfigDefaults: zero fields fall back; explicit fields stick.
func TestConfigDefaults(t *testing.T) {
	def := DefaultConfig()
	if got := New(Config{}).Config(); got != def {
		t.Errorf("zero config = %+v, want defaults %+v", got, def)
	}
	custom := Config{HalfLifeMs: 100, Drift: 0.2, Threshold: 1, Warmup: 5}
	if got := New(custom).Config(); got != custom {
		t.Errorf("custom config = %+v, want %+v", got, custom)
	}
}
