package core

import (
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// Golden plans for the 3-device chain. The tables were recorded from
// the hardcoded two-cut planner this repo shipped before JPSChain
// replaced it (its JPS-3tier search and its two-tier-over-two-hops
// baseline), run on threeTierChain()'s topology. JPSChain and
// OneCutChain must reproduce them with exact ==: same float makespan,
// same per-job cut pair, same schedule order. A diff here means the
// candidate order, the best/runner-up tie-breaking, the mixing splits
// or the m-machine sequencer moved — planning output changed, which
// -fig 3tier, -fig chain and examples/edgecluster would all show.

type chainGolden struct {
	model    string
	n        int
	makespan float64
	cuts     [][2]int // per job: (mobile/edge cut, edge/cloud cut)
	seq      []int    // job IDs in schedule order
}

func checkChainGolden(t *testing.T, name string, plan func(g *dag.Graph, ch Chain, n int) (*ChainPlan, error), golden []chainGolden) {
	t.Helper()
	ch := threeTierChain()
	for _, want := range golden {
		got, err := plan(models.MustBuild(want.model), ch, want.n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.makespan {
			t.Errorf("%s %s n=%d: makespan %v != golden %v (must be bit-identical)",
				name, want.model, want.n, got.Makespan, want.makespan)
		}
		if len(got.Cuts) != want.n || len(got.Sequence) != want.n {
			t.Fatalf("%s %s n=%d: plan sizes %d/%d", name, want.model, want.n, len(got.Cuts), len(got.Sequence))
		}
		for i, cuts := range got.Cuts {
			if len(cuts) != 2 || [2]int{cuts[0], cuts[1]} != want.cuts[i] {
				t.Errorf("%s %s n=%d job %d: cuts %v != golden %v", name, want.model, want.n, i, cuts, want.cuts[i])
			}
		}
		for i, j := range got.Sequence {
			if j.ID != want.seq[i] {
				t.Errorf("%s %s n=%d pos %d: job %d != golden %d", name, want.model, want.n, i, j.ID, want.seq[i])
			}
		}
	}
}

func TestJPSChainMatchesThreeTier(t *testing.T) {
	checkChainGolden(t, "JPSChain", JPSChain, goldenJPSChain)
}

func TestOneCutChainMatchesGolden(t *testing.T) {
	checkChainGolden(t, "OneCutChain", OneCutChain, goldenOneCutChain)
}

// The same freeze over a grid of link speeds (mobilenetv2, edge at 0.2x
// cloud, uplink x backhaul Mb/s x n): broader evidence than the single
// topology above, makespan only.
func TestPropertyChainThreeTierParity(t *testing.T) {
	pi, gpu := devices()
	g := models.MustBuild("mobilenetv2")
	for _, want := range goldenLinkGrid {
		ch := Chain{
			Devices: []profile.Device{pi, gpu.Scaled(0.2), gpu},
			Links: []netsim.Channel{
				want.uplink,
				{Name: "bh", UplinkMbps: want.backMbps, SetupMs: 4},
			},
			DType: tensor.Float32,
		}
		got, err := JPSChain(g, ch, want.n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.makespan {
			t.Errorf("up=%s back=%g n=%d: makespan %v != golden %v",
				want.uplink.Name, want.backMbps, want.n, got.Makespan, want.makespan)
		}
	}
}

type linkGridGolden struct {
	uplink   netsim.Channel
	backMbps float64
	n        int
	makespan float64
}

var goldenJPSChain = []chainGolden{
	{"alexnet", 1, 412.5118756923077,
		[][2]int{{3, 6}},
		[]int{0}},
	{"alexnet", 3, 972.9364910769232,
		[][2]int{{3, 6}, {3, 3}, {3, 3}},
		[]int{1, 2, 0}},
	{"alexnet", 8, 2373.998029538461,
		[][2]int{{3, 6}, {3, 6}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}},
		[]int{2, 3, 4, 5, 6, 7, 0, 1}},
	{"alexnet", 20, 5736.545721846155,
		[][2]int{{3, 6}, {3, 6}, {3, 6}, {3, 6}, {3, 6}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}},
		[]int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 0, 1, 2, 3, 4}},
	{"resnet18", 1, 883.5136656410257,
		[][2]int{{0, 9}},
		[]int{0}},
	{"resnet18", 3, 2580.315716923077,
		[][2]int{{0, 9}, {0, 0}, {0, 0}},
		[]int{1, 2, 0}},
	{"resnet18", 8, 6822.320845128206,
		[][2]int{{0, 9}, {0, 9}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}},
		[]int{2, 3, 4, 5, 6, 7, 0, 1}},
	{"resnet18", 20, 17003.133152820516,
		[][2]int{{0, 9}, {0, 9}, {0, 9}, {0, 9}, {0, 9}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}},
		[]int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 0, 1, 2, 3, 4}},
	{"mobilenetv2", 1, 432.14648560683753,
		[][2]int{{24, 34}},
		[]int{0}},
	{"mobilenetv2", 3, 957.9442882735043,
		[][2]int{{24, 34}, {24, 24}, {24, 24}},
		[]int{1, 2, 0}},
	{"mobilenetv2", 8, 2272.4387949401707,
		[][2]int{{24, 34}, {24, 34}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}},
		[]int{2, 3, 4, 5, 6, 7, 0, 1}},
	{"mobilenetv2", 20, 5427.22561094017,
		[][2]int{{24, 34}, {24, 34}, {24, 34}, {24, 34}, {24, 34}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}},
		[]int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 0, 1, 2, 3, 4}},
}

var goldenOneCutChain = []chainGolden{
	{"alexnet", 1, 417.0584356923077,
		[][2]int{{3, 3}},
		[]int{0}},
	{"alexnet", 3, 977.4830510769232,
		[][2]int{{3, 3}, {3, 3}, {3, 3}},
		[]int{0, 1, 2}},
	{"alexnet", 8, 2378.5445895384614,
		[][2]int{{3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}},
		[]int{0, 1, 2, 3, 4, 5, 6, 7}},
	{"alexnet", 20, 5741.092281846155,
		[][2]int{{3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3}},
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}},
	{"resnet18", 1, 899.5699856410257,
		[][2]int{{0, 0}},
		[]int{0}},
	{"resnet18", 3, 2596.3720369230773,
		[][2]int{{0, 0}, {0, 0}, {0, 0}},
		[]int{0, 1, 2}},
	{"resnet18", 8, 6838.377165128206,
		[][2]int{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}},
		[]int{0, 1, 2, 3, 4, 5, 6, 7}},
	{"resnet18", 20, 17019.189472820515,
		[][2]int{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}},
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}},
	{"mobilenetv2", 1, 436.16056560683757,
		[][2]int{{24, 24}},
		[]int{0}},
	{"mobilenetv2", 3, 961.9583682735042,
		[][2]int{{24, 24}, {24, 24}, {24, 24}},
		[]int{0, 1, 2}},
	{"mobilenetv2", 8, 2276.4528749401707,
		[][2]int{{24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}},
		[]int{0, 1, 2, 3, 4, 5, 6, 7}},
	{"mobilenetv2", 20, 5431.23969094017,
		[][2]int{{24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}, {24, 24}},
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}},
}

var goldenLinkGrid = []linkGridGolden{
	{netsim.ThreeG, 2, 2, 1325.9130046060607},
	{netsim.ThreeG, 2, 9, 4300.327550060606},
	{netsim.ThreeG, 20, 2, 1213.0170046060607},
	{netsim.ThreeG, 20, 9, 4187.431550060606},
	{netsim.ThreeG, 200, 2, 1201.7274046060606},
	{netsim.ThreeG, 200, 9, 4176.141950060606},
	{netsim.FourG, 2, 2, 817.471306940171},
	{netsim.FourG, 2, 9, 2657.7636162735043},
	{netsim.FourG, 20, 2, 712.1017069401709},
	{netsim.FourG, 20, 9, 2552.3940162735043},
	{netsim.FourG, 200, 2, 694.0383469401709},
	{netsim.FourG, 200, 9, 2534.3306562735042},
	{netsim.WiFi, 2, 2, 448.7605763615819},
	{netsim.WiFi, 2, 9, 1459.2612376949155},
	{netsim.WiFi, 20, 2, 468.4213763615819},
	{netsim.WiFi, 20, 9, 1478.9220376949154},
	{netsim.WiFi, 200, 2, 432.2946563615819},
	{netsim.WiFi, 200, 9, 1442.7953176949154},
}
