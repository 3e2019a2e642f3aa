package core

import (
	"math"
	"testing"

	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// threeTierChain is the mobile→edge→cloud topology the depth-2 tests
// and the golden tables in chain_golden_test.go are taken on.
func threeTierChain() Chain {
	pi, gpu := devices()
	return Chain{
		// Edge box: weaker than the cloud.
		Devices: []profile.Device{pi, gpu.Scaled(0.25), gpu},
		// Wireless 4G uplink to the edge; fast wired backhaul onward.
		Links: []netsim.Channel{
			netsim.FourG,
			{Name: "backhaul", UplinkMbps: 100, SetupMs: 3},
		},
		DType: tensor.Float32,
	}
}

func TestJPSChainThreeDeviceBasics(t *testing.T) {
	g := models.MustBuild("alexnet")
	n := 20
	p, err := JPSChain(g, threeTierChain(), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cuts) != n || len(p.Sequence) != n {
		t.Fatalf("plan sizes wrong: %d/%d", len(p.Cuts), len(p.Sequence))
	}
	for i, cuts := range p.Cuts {
		if len(cuts) != 2 || cuts[0] > cuts[1] {
			t.Errorf("job %d: cuts %v, want a non-decreasing pair", i, cuts)
		}
	}
	if p.Makespan <= 0 {
		t.Error("non-positive makespan")
	}
	if p.AvgMs() != p.Makespan/float64(n) {
		t.Error("AvgMs mismatch")
	}
	if got := flowshop.MakespanM(p.Sequence); got != p.Makespan {
		t.Errorf("stored makespan %g != recomputed %g", p.Makespan, got)
	}
}

func TestThreeTierBeatsTwoTierWithSlowUplink(t *testing.T) {
	// The three-tier win: the second hop is cheap, so pushing the
	// split earlier (smaller mobile compute) while the edge absorbs
	// the middle layers beats hauling the cut tensor all the way at
	// two-tier cost. With a slow uplink and a fast backhaul the
	// three-tier plan must never lose.
	ch := threeTierChain()
	for _, model := range []string{"alexnet", "resnet18", "mobilenetv2"} {
		g := models.MustBuild(model)
		three, err := JPSChain(g, ch, 20)
		if err != nil {
			t.Fatal(err)
		}
		two, err := OneCutChain(g, ch, 20)
		if err != nil {
			t.Fatal(err)
		}
		if three.Makespan > two.Makespan*1.001 {
			t.Errorf("%s: three-tier %.1f worse than two-tier %.1f",
				model, three.Makespan, two.Makespan)
		}
	}
}

func TestThreeTierEdgeComputeIsBounded(t *testing.T) {
	// The plan does not schedule edge compute; verify it is indeed
	// negligible relative to the scheduled stages for the chosen cuts.
	g := models.MustBuild("alexnet")
	ch := threeTierChain()
	p, err := JPSChain(g, ch, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := buildChainCurves(g, ch)
	for i, cuts := range p.Cuts {
		if edgeMs := c.segmentComputeMs(1, cuts); edgeMs > p.AvgMs() {
			t.Errorf("job %d: edge compute %.2fms not negligible vs avg %.2fms",
				i, edgeMs, p.AvgMs())
		}
	}
}

func TestThreeTierRejectsBadN(t *testing.T) {
	g := models.MustBuild("alexnet")
	if _, err := JPSChain(g, threeTierChain(), 0); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := OneCutChain(g, threeTierChain(), 0); err == nil {
		t.Error("n=0 must error")
	}
}

func TestThreeTierLocalOnlyDegenerate(t *testing.T) {
	// With a hopeless uplink the planner collapses to local-only (both
	// cuts at the last position, no transfers).
	ch := threeTierChain()
	ch.Links[0] = netsim.Channel{Name: "awful", UplinkMbps: 0.001, SetupMs: 5000}
	g := models.MustBuild("resnet18")
	p, err := JPSChain(g, ch, 5)
	if err != nil {
		t.Fatal(err)
	}
	curve := profile.BuildCurve(g, ch.Devices[0], ch.Devices[2], ch.Links[0], ch.DType)
	wantLocal := 5 * curve.TotalMobileMs()
	if p.Makespan > wantLocal*1.01 {
		t.Errorf("three-tier %.0f should degrade to local-only %.0f", p.Makespan, wantLocal)
	}
}

// The degenerate-tuple sweep at depth 2: every pair shape prices to
// finite non-negative stages, and a cut at the last position makes its
// link free.
func TestThreeTierStagesForDegenerate(t *testing.T) {
	g := models.MustBuild("alexnet")
	c := buildChainCurves(g, threeTierChain())
	end := c.n - 1
	for _, tc := range [][]int{{0, 0}, {0, end}, {end, end}, {3, 3}, {3, end}, {0, 3}} {
		st := c.stagesFor(tc)
		for _, v := range st {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("stagesFor(%v): unusable stage %g", tc, v)
			}
		}
		if tc[0] == end && st[1] != 0 {
			t.Errorf("stagesFor(%v): uplink must be free at the end, got %g", tc, st[1])
		}
		if tc[1] == end && st[2] != 0 {
			t.Errorf("stagesFor(%v): backhaul must be free at the end, got %g", tc, st[2])
		}
	}
}
