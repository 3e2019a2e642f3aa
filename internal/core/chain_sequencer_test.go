package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"dnnjps/internal/dag"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
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
				best, second := c.bestTwo(depth)
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
// curves, best two candidates, the pricing of the one two-kind mix its
// load bounds leave to sequence (one state row) and result need, with
// no per-node search or sizing in the line view, no clone per priced
// tuple, no copy of the cut rows (each points at its tuple), no job
// list, copy or Johnson sort for that mix — its CDS order meets its
// load bound, so flowshop.TwoKindScheduleM prices it from its two kinds
// and the winner's sequence is built once — and Pareto cut lists sized
// once. The counts are exact and repeat run to run: the splits run one
// after another. ScheduleM on that mix (its copy, CDS's lists and one
// Johnson sort per surrogate) made them 43 and 45; Pareto cut lists
// grown by append 46 and 48; NEH and the descent on that mix and one
// array of cut rows 57 and 59; an articulation sweep per line view 66
// and 66; three sequenced two-kind mixes, each on its own goroutine,
// with a node slice per line-view unit made them 218 and 153; sizing
// each node per curve 1 192 and 329, a clone per tuple 283 and 200; the
// old planner's per-job, per-mix and per-trial allocations made
// mobilenetv2's 83 051; a search per node, reflection-based sorts and
// Johnson lists grown by append made plan-grid's AlexNet cell 412.
func TestJPSChainAllocs(t *testing.T) {
	pi, gpu := devices()
	planGrid := Chain{ // plan-grid's chain at 4G: the edge→cloud hop at half the access rate
		Devices: []profile.Device{pi, gpu.Scaled(0.25), gpu},
		Links:   []netsim.Channel{netsim.FourG, {Name: "wan-backhaul", UplinkMbps: netsim.FourG.UplinkMbps / 2, SetupMs: 15}},
		DType:   tensor.Float32,
	}
	for _, c := range []struct {
		model string
		ch    Chain
		want  float64
	}{
		{"mobilenetv2", threeTierChain(), 33},
		{"alexnet", planGrid, 35},
	} {
		g := models.MustBuild(c.model)
		got := testing.AllocsPerRun(5, func() {
			if _, err := JPSChain(g, c.ch, 100); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("JPSChain(%s, 3 devices, n=100) = %.0f allocs/run, want %.0f", c.model, got, c.want)
		}
	}
}

// A plan cannot depend on how many threads the runtime runs: the same
// makespan bits, cuts and sequence at GOMAXPROCS 1, 2 and 8, and no
// goroutine left behind.
func TestJPSChainSameAtAnyGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	baseline := runtime.NumGoroutine()
	type cell struct {
		g     *dag.Graph
		ch    Chain
		n     int
		name  string
		first *ChainPlan
	}
	var cells []*cell
	for _, model := range []string{"alexnet", "mobilenetv2", "resnet18", "googlenet"} {
		g := models.MustBuild(model)
		for _, access := range []netsim.Channel{netsim.FourG, netsim.WiFi} {
			for _, depth := range []int{2, 3} {
				for _, n := range []int{1, 3, 100} {
					cells = append(cells, &cell{g: g, ch: trafficChain(access, depth), n: n,
						name: fmt.Sprintf("%s/%s depth %d n=%d", model, access.Name, depth, n)})
				}
			}
		}
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cells {
			p, err := JPSChain(c.g, c.ch, c.n)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", c.name, procs, err)
			}
			if c.first == nil {
				c.first = p
				continue
			}
			if math.Float64bits(p.Makespan) != math.Float64bits(c.first.Makespan) ||
				!reflect.DeepEqual(p.Cuts, c.first.Cuts) || !slices.Equal(jobIDs(p.Sequence), jobIDs(c.first.Sequence)) {
				t.Errorf("%s: GOMAXPROCS %d plans makespan %v cuts %v sequence %v; GOMAXPROCS 1: %v %v %v",
					c.name, procs, p.Makespan, p.Cuts, jobIDs(p.Sequence),
					c.first.Makespan, c.first.Cuts, jobIDs(c.first.Sequence))
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the plans", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func jobIDs(seq []flowshop.JobM) []int {
	ids := make([]int, len(seq))
	for i, j := range seq {
		ids[i] = j.ID
	}
	return ids
}

// planGridChain is the benchmark's plan-grid chain on one access link:
// mobile → quarter-speed edge → cloud over a half-rate 15 ms WAN, and at
// depth 3 a half-speed regional box before the cloud on a second WAN.
func planGridChain(access netsim.Channel, depth int) Chain {
	pi, gpu := devices()
	wan := netsim.Channel{Name: "wan-backhaul", UplinkMbps: access.UplinkMbps / 2, SetupMs: 15}
	ch := Chain{
		Devices: []profile.Device{pi, gpu.Scaled(0.25), gpu},
		Links:   []netsim.Channel{access, wan},
		DType:   tensor.Float32,
	}
	if depth == 3 {
		ch.Devices = []profile.Device{pi, gpu.Scaled(0.25), gpu.Scaled(0.5), gpu}
		ch.Links = append(ch.Links, wan)
	}
	return ch
}

// frozenGridSequenced is how many of the two-kind splits JPSChain
// sequences on TestLowerBoundMSoundOnChainSplits' grid; every other
// two-kind split is pruned by its load bound. Without the bound it is
// frozenGridTwoKind, every one of them.
const frozenGridSequenced, frozenGridTwoKind = 194, 582

// flowshop.LowerBoundM is sound on JPSChain's own instances: for every
// split of its pair — TestJPSChainFrozen's grid at n = 20 and 100, and
// plan-grid's 16 chains — the bound is <= the makespan ScheduleM's
// sequence evaluates to. The same walk counts the two-kind splits
// JPSChain sequences: those whose bound is below every earlier split's
// makespan. On every one of those CDS's order meets the bound, so
// ScheduleM stops at CDS: no NEH, no descent.
func TestLowerBoundMSoundOnChainSplits(t *testing.T) {
	type cell struct {
		model string
		ch    Chain
		name  string
	}
	var cells []cell
	for _, model := range models.Names() {
		for _, access := range netsim.Presets() {
			for depth := 2; depth <= 4; depth++ {
				cells = append(cells, cell{model, frozenChain(access, depth), fmt.Sprintf("frozen %s depth %d", access.Name, depth)})
			}
		}
	}
	for _, model := range []string{"alexnet", "mobilenetv2", "resnet18", "googlenet"} {
		for _, access := range []netsim.Channel{netsim.FourG, netsim.WiFi} {
			for depth := 2; depth <= 3; depth++ {
				cells = append(cells, cell{model, planGridChain(access, depth), fmt.Sprintf("plan-grid %s depth %d", access.Name, depth)})
			}
		}
	}
	sequenced, twoKind := 0, 0
	for _, c := range cells {
		cc := buildChainCurves(models.MustBuild(c.model), c.ch)
		best, second := cc.bestTwo(c.ch.Depth())
		kinds := [][]float64{second.stages, best.stages}
		for _, n := range []int{20, 100} {
			incumbent := math.Inf(1)
			for _, mix := range []int{0, n / 4, n / 2, 3 * n / 4, n} {
				jobs := make([]flowshop.JobM, n)
				for j := range jobs {
					jobs[j] = flowshop.JobM{ID: j, Stages: best.stages}
					if j < mix {
						jobs[j].Stages = second.stages
					}
				}
				span := flowshop.MakespanM(flowshop.ScheduleM(jobs))
				lb := flowshop.LowerBoundM(kinds, []int{mix, n - mix})
				if lb > span {
					t.Errorf("%s %s n=%d split %d: bound %v > makespan %v", c.model, c.name, n, mix, lb, span)
				}
				if 0 < mix && mix < n && !slices.Equal(best.stages, second.stages) {
					twoKind++
					if lb < incumbent {
						sequenced++
						if cds := flowshop.MakespanM(flowshop.CDSM(jobs)); cds != lb {
							t.Errorf("%s %s n=%d split %d: CDS makespan %v, bound %v", c.model, c.name, n, mix, cds, lb)
						}
					}
				}
				incumbent = min(incumbent, span)
			}
		}
	}
	t.Logf("%d of %d two-kind splits sequenced", sequenced, twoKind)
	if sequenced != frozenGridSequenced || twoKind != frozenGridTwoKind {
		t.Errorf("%d of %d two-kind splits sequenced, frozen %d of %d", sequenced, twoKind, frozenGridSequenced, frozenGridTwoKind)
	}
}

// The split loop's fallback: on synthetic chain curves — random compute
// and link columns at depth 2 and 3 — the two-kind splits often miss
// their load bound under CDS, which no zoo chain does, so
// chainCurves.plan sends them to ScheduleM. Its plan, fallback or not,
// is the one ScheduleM on every split gives, to the bit: cuts, IDs,
// stage bits and makespan.
func TestChainPlanFallsBackToScheduleM(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	fellBack := 0
	for trial := 0; trial < 1000; trial++ {
		k, positions, n := 2+rng.Intn(2), 3+rng.Intn(6), 1+rng.Intn(40)
		f := make([]float64, positions)
		for i := 1; i < positions; i++ {
			f[i] = f[i-1] + rng.Float64()*20
		}
		c := &chainCurves{f: [][]float64{f}, linkMs: make([][]float64, k), n: positions}
		for l := range c.linkMs {
			c.linkMs[l] = make([]float64, positions) // 0 at the last position
			for i := 0; i < positions-1; i++ {
				c.linkMs[l][i] = rng.Float64() * 30
			}
		}
		for i := range positions {
			c.pareto = append(c.pareto, i)
		}

		best, second := c.bestTwo(k)
		kinds := [][]float64{second.stages, best.stages}
		mixes := []int{0, n / 4, n / 2, 3 * n / 4, n}
		if slices.Equal(best.stages, second.stages) {
			mixes = mixes[:1]
		}
		var want *ChainPlan
		for _, mix := range slices.Compact(mixes) {
			jobs := make([]flowshop.JobM, n)
			for j := range jobs {
				jobs[j] = flowshop.JobM{ID: j, Stages: best.stages}
				if j < mix {
					jobs[j].Stages = second.stages
				}
			}
			bound := flowshop.LowerBoundM(kinds, []int{mix, n - mix})
			if want == nil || bound < want.Makespan { // plan sequences this split
				if _, _, ok := flowshop.TwoKindScheduleM(second.stages, mix, best.stages, n-mix, bound); !ok {
					fellBack++
				}
			}
			seq := flowshop.ScheduleM(jobs)
			if span := flowshop.MakespanM(seq); want == nil || span < want.Makespan {
				want = &ChainPlan{Method: "JPS-chain", Cuts: tileCuts(n, mix, second.cuts, best.cuts), Sequence: seq, Makespan: span}
			}
		}
		if got := c.plan(k, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (depth %d, n=%d): plan (makespan %v, sequence %v) differs from ScheduleM on every split (makespan %v, sequence %v)",
				trial, k, n, got.Makespan, got.Sequence, want.Makespan, want.Sequence)
		}
	}
	t.Logf("%d splits fell back to ScheduleM", fellBack)
	if fellBack < 50 {
		t.Errorf("%d splits fell back to ScheduleM, want >= 50", fellBack)
	}
}
