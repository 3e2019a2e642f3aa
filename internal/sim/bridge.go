package sim

import (
	"fmt"

	"dnnjps/internal/core"
)

// Resource names used by the plan bridges.
const (
	ResMobile = "mobile"
	ResUplink = "uplink"
	ResCloud  = "cloud"
)

// threeStage is the one mobile→uplink→cloud job behind the line,
// replay and stream bridges.
func threeStage(id, priority int, releaseMs, f, g, cloud float64) JobSpec {
	return JobSpec{ID: id, Priority: priority, ReleaseMs: releaseMs, Stages: []StageSpec{
		{Resource: ResMobile, Ms: f},
		{Resource: ResUplink, Ms: g},
		{Resource: ResCloud, Ms: cloud},
	}}
}

// FromPlan expands a line-structure plan into simulator jobs: each
// inference job becomes mobile→uplink→cloud stages with the plan's
// f/g/cloud durations, prioritized by its position in the Johnson
// sequence.
func FromPlan(p *core.Plan) []JobSpec {
	jobs := make([]JobSpec, 0, len(p.Sequence))
	for pos, fj := range p.Sequence {
		jobs = append(jobs, threeStage(fj.ID, pos, 0, fj.A, fj.B, p.Curve.CloudMs[p.Cuts[fj.ID]]))
	}
	return jobs
}

// FromDurations expands explicit per-job stage durations, indexed by
// sequence position, into mobile→uplink→cloud simulator jobs. It is
// the bridge for replaying measured runtime timings (e.g. a live
// pipelined run's per-job mobile and cloud times) through the
// discrete-event model. cloud may be nil for a two-stage replay; g
// likewise for local-only jobs.
func FromDurations(f, g, cloud []float64) []JobSpec {
	jobs := make([]JobSpec, 0, len(f))
	at := func(xs []float64, i int) float64 {
		if i < len(xs) {
			return xs[i]
		}
		return 0
	}
	for i := range f {
		jobs = append(jobs, threeStage(i, i, 0, f[i], at(g, i), at(cloud, i)))
	}
	return jobs
}

// FromStreamPlan expands a streaming plan: each frame becomes
// mobile→uplink→cloud stages released at its arrival time, run in
// arrival order.
func FromStreamPlan(p *core.StreamPlan) []JobSpec {
	jobs := make([]JobSpec, 0, len(p.Jobs))
	for i, sj := range p.Jobs {
		jobs = append(jobs, threeStage(sj.ID, i, sj.ReleaseMs, sj.F, sj.G, sj.CloudMs))
	}
	return jobs
}

// FromChainPlan expands a k-way chain plan into simulator jobs: each
// job's (k+1)-stage pipeline becomes device-0 compute on ResMobile
// followed by one stage per link resource ("link0", "link1", …),
// prioritized by sequence position. The event-simulated makespan
// cross-checks the m-machine flow-shop recurrence the planner priced
// with (TestFromChainPlanMatchesMakespanM).
func FromChainPlan(p *core.ChainPlan) []JobSpec {
	jobs := make([]JobSpec, 0, len(p.Sequence))
	for pos, jm := range p.Sequence {
		stages := make([]StageSpec, len(jm.Stages))
		stages[0] = StageSpec{Resource: ResMobile, Ms: jm.Stages[0]}
		for l := 1; l < len(jm.Stages); l++ {
			stages[l] = StageSpec{Resource: fmt.Sprintf("link%d", l-1), Ms: jm.Stages[l]}
		}
		jobs = append(jobs, JobSpec{ID: jm.ID, Priority: pos, Stages: stages})
	}
	return jobs
}

// FromGeneralPlan expands an Algorithm 3 plan: each path job becomes
// mobile→uplink stages with its deduplicated durations (cloud time is
// folded into a final zero-or-more stage only when the plan carries
// it; path granularity has no per-path cloud estimate, matching the
// paper's two-stage treatment).
func FromGeneralPlan(gp *core.GeneralPlan) []JobSpec {
	jobs := make([]JobSpec, 0, len(gp.Sequence))
	for pos, pj := range gp.Sequence {
		jobs = append(jobs, JobSpec{
			ID:       pos,
			Priority: pos,
			Stages: []StageSpec{
				{Resource: ResMobile, Ms: pj.ActualF},
				{Resource: ResUplink, Ms: pj.ActualG},
			},
		})
	}
	return jobs
}
