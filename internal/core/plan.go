package core

import (
	"fmt"
	"math"

	"dnnjps/internal/flowshop"
	"dnnjps/internal/profile"
)

// Plan is a complete joint decision for n identical inference jobs:
// one cut per job plus the Johnson-ordered execution sequence and its
// makespan. Cut indices refer to positions of the original curve.
type Plan struct {
	Method string
	Curve  *profile.Curve
	// Cuts holds the cut position of each job, unsorted (job i keeps
	// identity i).
	Cuts []int
	// Sequence is the Johnson-ordered schedule; Job.ID indexes Cuts.
	Sequence []flowshop.Job
	// Makespan is the two-stage flow-shop makespan (the paper's
	// objective; cloud time is negligible and checked by the
	// simulator).
	Makespan float64
	// CloudTailMs is the remaining cloud time of the last scheduled
	// job — the part the two-stage model ignores.
	CloudTailMs float64
}

// AvgMs is the average completion time Makespan/n reported by Fig. 12.
func (p *Plan) AvgMs() float64 {
	if len(p.Cuts) == 0 {
		return 0
	}
	return p.Makespan / float64(len(p.Cuts))
}

// planFromCuts schedules the given cuts and wraps them in a Plan.
func planFromCuts(method string, c *profile.Curve, cuts []int) *Plan {
	jobs := JobsForCuts(c, cuts)
	seq := flowshop.Johnson(jobs)
	p := &Plan{
		Method:   method,
		Curve:    c,
		Cuts:     cuts,
		Sequence: seq,
		Makespan: flowshop.Makespan(seq),
	}
	if len(seq) > 0 {
		p.CloudTailMs = c.CloudMs[cuts[seq[len(seq)-1].ID]]
	}
	return p
}

// JPS is the paper's joint partition-and-scheduling planner for
// line-structure (or virtual-block clustered) DNNs: restrict to
// Pareto cuts, binary-search l* (Alg. 2), mix cuts l*-1 and l* by the
// Theorem 5.3 balance condition, and schedule with Johnson's rule
// (Alg. 1). One deviation from the paper's text: the split uses the
// exact real-valued ratio (evaluating the two adjacent integer splits)
// instead of the floored integer ratio, which collapses to "all jobs
// at l*" whenever the true ratio is below 1 — see JPSPaperRatio for
// the literal rule and the ablation bench comparing the two.
func JPS(c *profile.Curve, n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: JPS needs n >= 1, got %d", n)
	}
	x, err := findCrossing(c)
	if err != nil {
		return nil, err
	}
	s, k := x.splits(n)
	return x.bestPlan("JPS", c, n, s[:k]), nil
}

// bestPlan prices c's n jobs at each split in ms, keeps the first of
// the smallest makespans and builds the plan for that split alone.
func (x crossing) bestPlan(method string, c *profile.Curve, n int, ms []int) *Plan {
	a, b := x.kinds()
	best, span := ms[0], mixSpan(c, n, ms[0], a, b)
	for _, m := range ms[1:] {
		if s := mixSpan(c, n, m, a, b); s < span {
			best, span = m, s
		}
	}
	return planFromCuts(method, c, x.cuts(n, best))
}

// JPSPlus globalizes Theorem 5.3: instead of mixing only the two
// layers adjacent to the crossing, it searches every pair of Pareto
// cuts with every split — O(k²·n) schedule evaluations, still
// millisecond-scale for model-sized k. On curves whose adjacent-layer
// differences are drastic (coarse virtual-block curves violate the
// theorem's smoothness premise), JPSPlus recovers most of the gap to
// the exhaustive optimum; see the Fig. 11 experiment.
func JPSPlus(c *profile.Curve, n int) (*Plan, error) {
	p, err := BruteForceTwoPoint(c, n)
	if err != nil {
		return nil, err
	}
	p.Method = "JPS+"
	return p, nil
}

// JPSPaperRatio is the literal Algorithm 2 mix: the floored integer
// ratio of Theorem 5.3 drives the split. Kept as an ablation target;
// JPS's balanced split dominates it (never worse, often much better
// when the true ratio is fractional).
func JPSPaperRatio(c *profile.Curve, n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: JPSPaperRatio needs n >= 1, got %d", n)
	}
	x, err := findCrossing(c)
	if err != nil {
		return nil, err
	}
	atPrev, _ := MixCounts(n, x.search.Ratio)
	return planFromCuts("JPS-paper-ratio", c, x.cuts(n, atPrev)), nil
}

// JPSBestMix is the exhaustive-mix ablation: same two candidate layers
// as JPS, but the split m is chosen by evaluating all n+1 mixes
// instead of the closed-form ratio. O(n²) overall; used to quantify
// how much the Theorem 5.3 rounding costs.
func JPSBestMix(c *profile.Curve, n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: JPSBestMix needs n >= 1, got %d", n)
	}
	x, err := findCrossing(c)
	if err != nil {
		return nil, err
	}
	ms := []int{0}
	for m := 1; m <= n && x.mixes(); m++ {
		ms = append(ms, m)
	}
	return x.bestPlan("JPS-bestmix", c, n, ms), nil
}

// PO is the partition-only baseline (the state-of-the-art single-DNN
// partition of Hu et al. [7], DADS): every job is cut at the layer
// minimizing its own end-to-end latency f(l) + g(l) + cloud(l), with
// no joint scheduling consideration. Jobs still execute in the natural
// pipelined FIFO order (all jobs identical, so ordering is moot).
func PO(c *profile.Curve, n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: PO needs n >= 1, got %d", n)
	}
	best, bestLat := 0, math.Inf(1)
	for _, i := range c.ParetoCuts() {
		if lat := c.F[i] + c.G[i] + c.CloudMs[i]; lat < bestLat {
			best, bestLat = i, lat
		}
	}
	return planFromCuts("PO", c, mixCuts(n, n, best, 0)), nil
}

// CO is the cloud-only baseline: upload the raw input of every job.
func CO(c *profile.Curve, n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: CO needs n >= 1, got %d", n)
	}
	cuts := make([]int, n) // position 0 = input unit
	return planFromCuts("CO", c, cuts), nil
}

// LO is the local-only baseline: every job runs entirely on the mobile
// device.
func LO(c *profile.Curve, n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: LO needs n >= 1, got %d", n)
	}
	return planFromCuts("LO", c, mixCuts(n, n, c.Len()-1, 0)), nil
}
