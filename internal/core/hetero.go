package core

// Heterogeneous jobs — the paper's closing future-work item ("joint
// partition and scheduling for ... heterogeneous jobs is worth further
// investigation"). A workload mixes several job classes, each an
// identical-DNN batch with its own cut curve (e.g. 4 AlexNet frames +
// 4 MobileNet frames arriving together). Per class, Algorithm 2 still
// yields the crossing and its two-type mix; classes then share the
// mobile CPU and the uplink, so the union is scheduled with Johnson's
// rule, which remains makespan-optimal for any fixed partition of a
// two-stage flow shop. Cut choices across classes interact only
// through the schedule, so a one-pass coordinate descent over each
// class's candidate splits (crossing.splits, the list JPS itself tries)
// captures the coupling.

import (
	"fmt"
	"slices"

	"dnnjps/internal/flowshop"
	"dnnjps/internal/profile"
)

// JobClass is one homogeneous slice of a heterogeneous workload.
type JobClass struct {
	// Name labels the class in schedules (defaults to the curve's
	// model name).
	Name string
	// Curve is the class's profiled cut curve.
	Curve *profile.Curve
	// Count is the number of identical jobs of this class.
	Count int
}

func (c JobClass) label() string {
	if c.Name != "" {
		return c.Name
	}
	return c.Curve.Model
}

// HeteroRef identifies one scheduled job of a heterogeneous plan.
type HeteroRef struct {
	Class int // index into the plan's Classes
	Job   int // job index within the class
	Cut   int // cut position on the class's curve
	F, G  float64
}

// HeteroPlan is a joint decision for a heterogeneous workload.
type HeteroPlan struct {
	Method   string
	Classes  []JobClass
	Sequence []HeteroRef
	Makespan float64
}

// TotalJobs returns the workload size.
func (p *HeteroPlan) TotalJobs() int {
	n := 0
	for _, c := range p.Classes {
		n += c.Count
	}
	return n
}

// AvgMs is the average completion time Makespan / total jobs.
func (p *HeteroPlan) AvgMs() float64 {
	if n := p.TotalJobs(); n > 0 {
		return p.Makespan / float64(n)
	}
	return 0
}

// validClasses is the one check behind the three entry points: a
// workload needs a class, and every class a curve and a positive count.
func validClasses(fn string, classes []JobClass) error {
	if len(classes) == 0 {
		return fmt.Errorf("core: %s needs at least one class", fn)
	}
	for i, c := range classes {
		if c.Curve == nil {
			return fmt.Errorf("core: class %d has no curve", i)
		}
		if c.Count <= 0 {
			return fmt.Errorf("core: class %d (%s) has count %d", i, c.label(), c.Count)
		}
	}
	return nil
}

// scheduleHetero is the one union schedule: class ci's jobs cut at
// cuts[ci] on the class's own curve, all of them sequenced together by
// Johnson's rule.
func scheduleHetero(method string, classes []JobClass, cuts [][]int) *HeteroPlan {
	var refs []HeteroRef
	var jobs []flowshop.Job
	for ci, c := range classes {
		for j, cut := range cuts[ci] {
			f, g := c.Curve.F[cut], c.Curve.G[cut]
			refs = append(refs, HeteroRef{Class: ci, Job: j, Cut: cut, F: f, G: g})
			jobs = append(jobs, flowshop.Job{ID: len(jobs), A: f, B: g})
		}
	}
	seq := flowshop.Johnson(jobs)
	plan := &HeteroPlan{Method: method, Classes: classes, Makespan: flowshop.Makespan(seq)}
	for _, j := range seq {
		plan.Sequence = append(plan.Sequence, refs[j.ID])
	}
	return plan
}

// JPSHetero jointly plans a heterogeneous workload: Algorithm 2 per
// class, balanced two-type splits per class refined by one pass of
// coordinate descent over the joint Johnson schedule.
func JPSHetero(classes []JobClass) (*HeteroPlan, error) {
	if err := validClasses("JPSHetero", classes); err != nil {
		return nil, err
	}
	xs := make([]crossing, len(classes))
	cuts := make([][]int, len(classes))
	for i, c := range classes {
		x, err := findCrossing(c.Curve)
		if err != nil {
			return nil, fmt.Errorf("core: class %s: %w", c.label(), err)
		}
		lo, _ := x.flank(c.Count) // the head of x.splits
		xs[i], cuts[i] = x, x.cuts(c.Count, lo)
	}
	best := scheduleHetero("JPS-hetero", classes, cuts)
	// Coordinate descent: try each class's alternative splits while
	// holding the others fixed.
	for i, x := range xs {
		s, k := x.splits(classes[i].Count)
		for _, m := range s[1:k] {
			trial := slices.Clone(cuts)
			trial[i] = x.cuts(classes[i].Count, m)
			if cand := scheduleHetero("JPS-hetero", classes, trial); cand.Makespan < best.Makespan {
				best, cuts = cand, trial
			}
		}
	}
	return best, nil
}

// HeteroBaseline plans every class with the given per-class planner
// (e.g. PO, LO, CO) and schedules the union with Johnson's rule —
// the "plan each class in isolation" reference point.
func HeteroBaseline(method string, plan func(*profile.Curve, int) (*Plan, error), classes []JobClass) (*HeteroPlan, error) {
	if err := validClasses("HeteroBaseline", classes); err != nil {
		return nil, err
	}
	cuts := make([][]int, len(classes))
	for ci, c := range classes {
		p, err := plan(c.Curve, c.Count)
		if err != nil {
			return nil, fmt.Errorf("core: class %s: %w", c.label(), err)
		}
		cuts[ci] = p.Cuts
	}
	return scheduleHetero(method, classes, cuts), nil
}

// BruteForceHetero enumerates the cross product of per-class cut
// multisets (Johnson-scheduled) — the exact heterogeneous optimum for
// small workloads. maxCombos bounds the total combinations (0 means
// 2_000_000).
func BruteForceHetero(classes []JobClass, maxCombos int) (*HeteroPlan, error) {
	if err := validClasses("BruteForceHetero", classes); err != nil {
		return nil, err
	}
	if maxCombos <= 0 {
		maxCombos = 2_000_000
	}
	idx := make([][]int, len(classes)) // per class: Pareto position -> curve position
	total := 1.0
	for i, c := range classes {
		_, idx[i] = c.Curve.Restrict(c.Curve.ParetoCuts())
		total *= multisetCount(c.Count, len(idx[i]))
		if total > float64(maxCombos) {
			return nil, fmt.Errorf("%w: ~%.0f combinations", ErrSearchSpaceTooLarge, total)
		}
	}

	// One multiset walk per class, nested: class ci's walk fixes
	// cuts[ci] and hands over to class ci+1's.
	cuts := make([][]int, len(classes))
	var best *HeteroPlan
	var walk func(ci int) error
	walk = func(ci int) error {
		if ci == len(classes) {
			if p := scheduleHetero("BF-hetero", classes, cuts); best == nil || p.Makespan < best.Makespan {
				best = p
			}
			return nil
		}
		n := classes[ci].Count
		return eachMultiset(n, len(idx[ci]), func(counts []int) error {
			cuts[ci] = cutsFromCounts(counts, idx[ci], n)
			return walk(ci + 1)
		})
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	return best, nil
}
