package core

import (
	"sort"
	"testing"

	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
)

// The direct-evaluation m-machine sequencer flowshop shipped before
// Taillard's NEH and the incremental descent — O(n³·m), every trial a
// full MakespanM. flowshop's own tests keep the same oracle; test files
// do not cross packages, so the traffic test below carries a copy.

func refNEHM(jobs []flowshop.JobM) []flowshop.JobM {
	order := append([]flowshop.JobM(nil), jobs...)
	sort.SliceStable(order, func(i, j int) bool {
		ti, tj := order[i].Total(), order[j].Total()
		if ti != tj {
			return ti > tj
		}
		return order[i].ID < order[j].ID
	})
	seq := make([]flowshop.JobM, 0, len(order))
	for _, j := range order {
		bestPos, bestSpan := 0, -1.0
		for pos := 0; pos <= len(seq); pos++ {
			trial := make([]flowshop.JobM, 0, len(seq)+1)
			trial = append(trial, seq[:pos]...)
			trial = append(trial, j)
			trial = append(trial, seq[pos:]...)
			if span := flowshop.MakespanM(trial); bestSpan < 0 || span < bestSpan {
				bestPos, bestSpan = pos, span
			}
		}
		seq = append(seq[:bestPos], append([]flowshop.JobM{j}, seq[bestPos:]...)...)
	}
	return seq
}

func refScheduleM(jobs []flowshop.JobM) []flowshop.JobM {
	cur, neh := flowshop.CDSM(jobs), refNEHM(jobs)
	if flowshop.MakespanM(neh) < flowshop.MakespanM(cur) {
		cur = neh
	}
	span := flowshop.MakespanM(cur)
	for improved := true; improved; {
		improved = false
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				cur[i], cur[j] = cur[j], cur[i]
				if s := flowshop.MakespanM(cur); s < span-1e-12 {
					span = s
					improved = true
				} else {
					cur[i], cur[j] = cur[j], cur[i]
				}
			}
		}
	}
	return cur
}

// trafficChain is a depth-2 or depth-3 chain behind the given access
// link: the three- and four-tier test topologies with the first hop
// swapped.
func trafficChain(access netsim.Channel, depth int) Chain {
	ch := threeTierChain()
	if depth == 3 {
		ch = fourTierChain()
	}
	ch.Links = append([]netsim.Channel{access}, ch.Links[1:]...)
	return ch
}

// (c) What callers see of NEH's float tie-breaking on the traffic that
// matters: for JPSChain's own instances — its best/runner-up candidate
// pair, every mix 0..n — ScheduleM returns the direct-evaluation
// sequencer's sequence, job for job, with the same makespan float.
func TestScheduleMMatchesReferenceOnChainTraffic(t *testing.T) {
	instances := 0
	for _, model := range []string{"alexnet", "mobilenetv2", "resnet18"} {
		g := models.MustBuild(model)
		for _, access := range netsim.Presets() {
			for _, depth := range []int{2, 3} {
				c := buildChainCurves(g, trafficChain(access, depth))
				best, second := bestTwo(c.candidates(depth))
				for _, n := range []int{5, 20, 50} {
					for mixAt := 0; mixAt <= n; mixAt++ {
						jobs := make([]flowshop.JobM, n)
						for i := range jobs {
							jobs[i] = flowshop.JobM{ID: i, Stages: best.stages}
							if i < mixAt {
								jobs[i].Stages = second.stages
							}
						}
						got, want := flowshop.ScheduleM(jobs), refScheduleM(jobs)
						for i := range want {
							if got[i].ID != want[i].ID {
								t.Fatalf("%s/%s depth %d n=%d mix %d: position %d is job %d, reference has %d",
									model, access.Name, depth, n, mixAt, i, got[i].ID, want[i].ID)
							}
						}
						if gs, ws := flowshop.MakespanM(got), flowshop.MakespanM(want); gs != ws {
							t.Fatalf("%s/%s depth %d n=%d mix %d: makespan %v != reference %v",
								model, access.Name, depth, n, mixAt, gs, ws)
						}
						instances++
					}
				}
			}
		}
	}
	t.Logf("%d instances, all identical to the direct-evaluation sequencer", instances)
}

// (e) A k-way plan at the paper's n = 100 allocates what its line view,
// curves, candidates and result need (≈ 1 950 here); the per-job,
// per-mix and per-trial allocations of the old planner made it 83 051.
func TestJPSChainAllocs(t *testing.T) {
	g, ch := models.MustBuild("mobilenetv2"), threeTierChain()
	got := testing.AllocsPerRun(5, func() {
		if _, err := JPSChain(g, ch, 100); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("JPSChain(mobilenetv2, 3 devices, n=100): %.0f allocs", got)
	if got > 4000 {
		t.Errorf("JPSChain(mobilenetv2, 3 devices, n=100) = %.0f allocs/run, want <= 4000", got)
	}
}
