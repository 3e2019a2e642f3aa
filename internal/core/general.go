package core

import (
	"fmt"

	"dnnjps/internal/dag"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// PathJob is one scheduled unit of a general-structure plan: job j's
// slice of path p, cut after the path's Cut-th node. F and G are the
// nominal stage lengths (duplicated prefix nodes fully counted, as in
// the paper's Alg. 1 application); ActualF and ActualG are the
// deduplicated values realized in the schedule (duplicated nodes
// executed/uploaded once per job, per the paper's modified Alg. 1).
type PathJob struct {
	Job, Path, Cut   int
	F, G             float64
	ActualF, ActualG float64
}

// GeneralPlan is the Algorithm 3 result for n identical jobs on a
// general-structure DNN.
type GeneralPlan struct {
	Method string
	// Paths holds the independent paths of the converted DAG (full
	// Fig. 9 conversion when small, hierarchical otherwise).
	Paths [][]int
	// Sequence is the Johnson-ordered schedule of all n×|Paths| path
	// jobs, with deduplicated stage lengths filled in.
	Sequence []PathJob
	// Makespan is the two-stage makespan of the deduplicated schedule.
	Makespan float64
	// CutNodes[j] lists the cut node of each path for job j (the
	// partition set P_j of §3.1).
	CutNodes [][]int
	// Channel is the channel the plan was priced on.
	Channel netsim.Channel
}

// JobSequence is the plan's job-level view, the unit the runtime ships:
// one frame per job. Job j's A is Σ ActualF and its B Σ ActualG over its
// path jobs, less the channel setups after the first (a frame pays
// SetupMs once, the path-level model once per cut tensor). Each node and
// each cut tensor is counted once per job, so neither sum depends on how
// Sequence interleaves paths. Johnson-ordered; its flowshop.Makespan is
// the job-level makespan, not Makespan (EXPERIMENTS.md "Path-level vs
// job-level").
func (p *GeneralPlan) JobSequence() []flowshop.Job {
	jobs := make([]flowshop.Job, len(p.CutNodes))
	for j := range jobs {
		jobs[j].ID = j
	}
	for _, pj := range p.Sequence {
		j := &jobs[pj.Job]
		j.A += pj.ActualF
		if pj.ActualG > 0 {
			if j.B > 0 {
				j.B -= p.Channel.SetupMs
			}
			j.B += pj.ActualG
		}
	}
	return flowshop.Johnson(jobs)
}

// AvgMs is Makespan divided by the number of jobs.
func (p *GeneralPlan) AvgMs() float64 {
	if len(p.CutNodes) == 0 {
		return 0
	}
	return p.Makespan / float64(len(p.CutNodes))
}

// convertToPaths performs the Fig. 9 conversion: the exact all-paths
// expansion when the DAG is small enough, otherwise the hierarchical
// series-parallel form where each parallel region contributes its
// branches round-robin across max-width paths (every node is covered;
// see DESIGN.md §4).
func convertToPaths(g *dag.Graph, limit int) ([][]int, error) {
	if limit <= 0 {
		limit = 64
	}
	if g.CountPaths() <= limit {
		return g.AllPaths(limit)
	}
	segs, err := g.Decompose(0)
	if err != nil {
		return nil, err
	}
	width := 1
	for _, s := range segs {
		if s.IsParallel() && len(s.Branches) > width {
			width = len(s.Branches)
		}
	}
	paths := make([][]int, width)
	for _, s := range segs {
		if !s.IsParallel() {
			for p := range paths {
				paths[p] = append(paths[p], s.Node)
			}
			continue
		}
		for p := range paths {
			br := s.Branches[p%len(s.Branches)]
			paths[p] = append(paths[p], br...)
		}
	}
	return paths, nil
}

// PlanGeneral is Algorithm 3: convert the DAG to independent paths,
// find each path's cut with Algorithm 2 (mixing the two adjacent
// candidates across jobs at the Theorem 5.3 ratio), then schedule all
// n×|Paths| path jobs with Johnson's rule, counting duplicated nodes
// once when executed.
func PlanGeneral(g *dag.Graph, mobile, cloud profile.Device, ch netsim.Channel, dt tensor.DType, n, pathLimit int) (*GeneralPlan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: PlanGeneral needs n >= 1, got %d", n)
	}
	paths, err := convertToPaths(g, pathLimit)
	if err != nil {
		return nil, err
	}

	// Per-path Algorithm 2 on the Pareto positions of the path's own curve.
	plans := make([]crossing, len(paths))
	for pi, path := range paths {
		plans[pi], err = findCrossing(profile.PathCurve(g, path, mobile, cloud, ch, dt))
		if err != nil {
			return nil, fmt.Errorf("core: path %d: %w", pi, err)
		}
	}

	// evaluate builds and replays the joint schedule for a given
	// "jobs cut at l*-1" count per path.
	evaluate := func(splits []int) *GeneralPlan {
		var jobs []PathJob
		cutNodes := make([][]int, n)
		for j := 0; j < n; j++ {
			cutNodes[j] = make([]int, len(paths))
		}
		for pi := range paths {
			pp := plans[pi]
			for j := 0; j < n; j++ {
				pos := pp.pos(j, splits[pi])
				cutPathPos := pp.idx[pos]
				cutNodes[j][pi] = paths[pi][cutPathPos]
				jobs = append(jobs, PathJob{
					Job:  j,
					Path: pi,
					Cut:  cutPathPos,
					F:    pp.f(pos),
					G:    pp.g(pos),
				})
			}
		}

		// Johnson's rule over the nominal (f, g) of every path job,
		// duplicated nodes included — exactly the paper's Alg. 1 call.
		fsJobs := make([]flowshop.Job, len(jobs))
		for i, pj := range jobs {
			fsJobs[i] = flowshop.Job{ID: i, A: pj.F, B: pj.G}
		}
		order := flowshop.Johnson(fsJobs)

		// Replay the sequence with per-job deduplication: a node
		// already executed (or a tensor already uploaded) by an
		// earlier path of the same job is counted once — the paper's
		// modified Alg. 1.
		executed := make([]map[int]bool, n)
		uploaded := make([]map[int]bool, n)
		for j := 0; j < n; j++ {
			executed[j] = make(map[int]bool)
			uploaded[j] = make(map[int]bool)
		}
		seq := make([]PathJob, 0, len(order))
		actual := make([]flowshop.Job, 0, len(order))
		for _, fj := range order {
			pj := jobs[fj.ID]
			path := paths[pj.Path]
			var a float64
			for _, id := range path[:pj.Cut+1] {
				if !executed[pj.Job][id] {
					executed[pj.Job][id] = true
					a += mobile.LayerTimeMs(g, id)
				}
			}
			var b float64
			cutNode := path[pj.Cut]
			if pj.Cut < len(path)-1 && !uploaded[pj.Job][cutNode] {
				uploaded[pj.Job][cutNode] = true
				b = ch.TxMs(g.OutBytes(cutNode, dt))
			}
			pj.ActualF, pj.ActualG = a, b
			seq = append(seq, pj)
			actual = append(actual, flowshop.Job{ID: fj.ID, A: a, B: b})
		}

		return &GeneralPlan{
			Method:   "JPS-general",
			Paths:    paths,
			Sequence: seq,
			Makespan: flowshop.Makespan(actual),
			CutNodes: cutNodes,
			Channel:  ch,
		}
	}

	// Coordinate descent over the two balanced-split candidates of
	// each path (one pass): for a single path this is exactly the line
	// planner's two-candidate evaluation.
	splits := make([]int, len(paths))
	alts := make([]int, len(paths))
	for pi, pp := range plans {
		splits[pi], alts[pi] = pp.flank(n)
	}
	best := evaluate(splits)
	for pi := range paths {
		if alts[pi] == splits[pi] {
			continue
		}
		trial := append([]int(nil), splits...)
		trial[pi] = alts[pi]
		if cand := evaluate(trial); cand.Makespan < best.Makespan {
			best = cand
			splits = trial
		}
	}
	return best, nil
}

// PlanGeneralBest plans a general-structure DNN the way a deployed
// scheduler would: it evaluates the Algorithm 3 per-path plan, the
// virtual-block line-view JPS plan, and the trivial LO/CO plans, and
// returns the one with the smallest estimated makespan. The paper
// notes Alg. 3 "omits the potential collaboration opportunity between
// paths"; at low bandwidths its per-path uploads can lose to simply
// running locally, and this selector absorbs that case.
func PlanGeneralBest(g *dag.Graph, mobile, cloud profile.Device, ch netsim.Channel, dt tensor.DType, n, pathLimit int) (*GeneralPlan, error) {
	gp, err := PlanGeneral(g, mobile, cloud, ch, dt, n, pathLimit)
	if err != nil {
		return nil, err
	}
	curve := profile.BuildCurve(g, mobile, cloud, ch, dt)
	type linePlanner struct {
		name string
		fn   func(*profile.Curve, int) (*Plan, error)
	}
	for _, lp := range []linePlanner{{"JPS-line", JPS}, {"LO", LO}, {"CO", CO}} {
		p, err := lp.fn(curve, n)
		if err != nil {
			return nil, err
		}
		if p.Makespan < gp.Makespan {
			gp = generalFromLinePlan(g, curve, p, lp.name)
		}
	}
	return gp, nil
}

// generalFromLinePlan lifts a line-view plan into the GeneralPlan
// shape so callers get a uniform result type.
func generalFromLinePlan(g *dag.Graph, curve *profile.Curve, p *Plan, name string) *GeneralPlan {
	units := profile.LineView(g)
	n := len(p.Cuts)
	cutNodes := make([][]int, n)
	for j, cut := range p.Cuts {
		cutNodes[j] = []int{units[cut].Exit}
	}
	seq := make([]PathJob, len(p.Sequence))
	for i, fj := range p.Sequence {
		seq[i] = PathJob{
			Job: fj.ID, Path: 0, Cut: p.Cuts[fj.ID],
			F: fj.A, G: fj.B, ActualF: fj.A, ActualG: fj.B,
		}
	}
	return &GeneralPlan{
		Method:   "JPS-general/" + name,
		Paths:    [][]int{unitExits(units)},
		Sequence: seq,
		Makespan: p.Makespan,
		CutNodes: cutNodes,
		Channel:  curve.Channel,
	}
}

func unitExits(units []profile.Unit) []int {
	out := make([]int, len(units))
	for i, u := range units {
		out[i] = u.Exit
	}
	return out
}
