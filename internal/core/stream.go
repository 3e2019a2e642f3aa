package core

// Streaming workloads — an extension beyond the paper's batch setting.
// The paper releases all n jobs at time 0; real AR/self-driving
// pipelines emit frames continuously. PlanStream applies the JPS
// machinery online: Algorithm 2 fixes the two candidate cuts once, the
// Theorem 5.3 balance fraction decides each arriving frame's cut
// (interleaved so any window of the stream holds the optimal mix), and
// frames run in arrival order — the flow-shop pipeline absorbs the mix
// exactly as in the batch case.

import (
	"fmt"
	"math"
	"math/rand"

	"dnnjps/internal/profile"
)

// StreamJob is one planned frame of a stream.
type StreamJob struct {
	ID        int
	ReleaseMs float64
	Cut       int // position on the stream's curve
	F, G      float64
	CloudMs   float64
}

// StreamPlan assigns cuts to a stream of releases.
type StreamPlan struct {
	Curve *profile.Curve
	Jobs  []StreamJob
	// MixFraction is the planned fraction of frames cut at l*-1.
	MixFraction float64
	// SustainableMs is the steady-state per-frame service bound
	// max(F̄, Ḡ) of the mix: release intervals below it overload the
	// pipeline and the queue grows without bound.
	SustainableMs float64
}

// PlanStream plans one frame per release time (releases must be
// non-negative; order does not matter, jobs are emitted sorted by the
// caller's order). The mix interleaves l*-1 and l* cuts by the exact
// balance fraction using error diffusion, so every prefix of the
// stream stays within one job of the ideal ratio.
func PlanStream(c *profile.Curve, releases []float64) (*StreamPlan, error) {
	if len(releases) == 0 {
		return nil, fmt.Errorf("core: PlanStream needs at least one release")
	}
	x, err := findCrossing(c)
	if err != nil {
		return nil, err
	}
	lstar := x.search.LStar
	frac := 0.0
	if x.mixes() {
		prev, cur := x.surpluses(lstar)
		if den := prev + cur; den > 0 {
			frac = cur / den
		}
	}

	plan := &StreamPlan{Curve: c, MixFraction: frac}
	var fSum, gSum float64
	acc := 0.0
	for i, rel := range releases {
		if rel < 0 {
			return nil, fmt.Errorf("core: release %d is negative (%g)", i, rel)
		}
		pos := lstar
		acc += frac
		if acc >= 1-1e-12 {
			acc -= 1
			pos = lstar - 1 // frac > 0 only where two cuts mix
		}
		cut := x.at(pos)
		plan.Jobs = append(plan.Jobs, StreamJob{
			ID:        i,
			ReleaseMs: rel,
			Cut:       cut,
			F:         c.F[cut],
			G:         c.G[cut],
			CloudMs:   c.CloudMs[cut],
		})
		fSum += c.F[cut]
		gSum += c.G[cut]
	}
	n := float64(len(releases))
	plan.SustainableMs = math.Max(fSum/n, gSum/n)
	return plan, nil
}

// PeriodicReleases builds n release times at a fixed inter-arrival
// interval — a camera emitting frames at 1000/intervalMs FPS.
func PeriodicReleases(n int, intervalMs float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * intervalMs
	}
	return out
}

// PoissonReleases builds n release times with exponentially
// distributed inter-arrival gaps of the given mean — bursty traffic
// for stress-testing the stream planner. Deterministic in seed.
func PoissonReleases(n int, meanIntervalMs float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		out[i] = t
		t += rng.ExpFloat64() * meanIntervalMs
	}
	return out
}

// Sustainable reports whether a periodic stream with the given
// inter-arrival interval can run without unbounded queueing under this
// plan's mix.
func (p *StreamPlan) Sustainable(intervalMs float64) bool {
	return intervalMs >= p.SustainableMs
}
