package core

import (
	"errors"
	"math"
	"testing"

	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

func fourTierChain() Chain {
	pi, gpu := devices()
	return Chain{
		Devices: []profile.Device{pi, gpu.Scaled(0.1), gpu.Scaled(0.4), gpu},
		Links: []netsim.Channel{
			netsim.FourG,
			{Name: "metro", UplinkMbps: 60, SetupMs: 5},
			{Name: "backbone", UplinkMbps: 200, SetupMs: 2},
		},
		DType: tensor.Float32,
	}
}

func TestChainValidate(t *testing.T) {
	pi, gpu := devices()
	good := TwoTierChain(pi, gpu, netsim.FourG, tensor.Float32)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	cases := map[string]Chain{
		"one device":     {Devices: good.Devices[:1], DType: tensor.Float32},
		"missing link":   {Devices: []profile.Device{pi, gpu, gpu}, Links: good.Links, DType: tensor.Float32},
		"zero bandwidth": {Devices: good.Devices, Links: []netsim.Channel{{Name: "dead"}}, DType: tensor.Float32},
		"nan bandwidth": {Devices: good.Devices,
			Links: []netsim.Channel{{Name: "nan", UplinkMbps: math.NaN()}}, DType: tensor.Float32},
		"inf setup": {Devices: good.Devices,
			Links: []netsim.Channel{{Name: "inf", UplinkMbps: 10, SetupMs: math.Inf(1)}}, DType: tensor.Float32},
		"nan downlink": {Devices: good.Devices,
			Links: []netsim.Channel{{Name: "dl", UplinkMbps: 10, DownlinkMbps: math.NaN()}}, DType: tensor.Float32},
	}
	for name, ch := range cases {
		if err := ch.Validate(); err == nil {
			t.Errorf("%s: Validate must reject", name)
		}
		if _, err := JPSChain(models.MustBuild("alexnet"), ch, 2); err == nil {
			t.Errorf("%s: JPSChain must reject", name)
		}
	}
}

// Parity (acceptance): on a 1-cut chain JPSChain must reproduce the
// paper's two-tier JPS exactly, reply pricing and all.
func TestJPSChainMatchesTwoTierJPS(t *testing.T) {
	pi, gpu := devices()
	for _, model := range []string{"alexnet", "resnet18"} {
		for _, link := range []netsim.Channel{netsim.ThreeG, netsim.WiFi, netsim.FourG.WithDownlink(5)} {
			g := models.MustBuild(model)
			curve := profile.BuildCurve(g, pi, gpu, link, tensor.Float32)
			want, err := JPS(curve, 12)
			if err != nil {
				t.Fatal(err)
			}
			got, err := JPSChain(g, TwoTierChain(pi, gpu, link, tensor.Float32), 12)
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != want.Makespan {
				t.Fatalf("%s/%s: chain %v != JPS %v", model, link.Name, got.Makespan, want.Makespan)
			}
			for i := range got.Cuts {
				if got.Cuts[i][0] != want.Cuts[i] {
					t.Fatalf("%s/%s job %d: cut %d != %d", model, link.Name, i, got.Cuts[i][0], want.Cuts[i])
				}
			}
		}
	}
}

// Degenerate grid (bugfix sweep): every tuple shape — all cuts equal,
// cuts at 0, cuts at the end, empty middle segments — must price to
// finite non-negative stages with zero transmission for end cuts, and
// empty plans must report AvgMs 0 rather than NaN.
func TestChainDegenerateGrid(t *testing.T) {
	g := models.MustBuild("alexnet")
	ch := fourTierChain()
	c := buildChainCurves(g, ch)
	end := c.n - 1
	grid := [][]int{
		{0, 0, 0},           // everything remote, three pass-through hops
		{end, end, end},     // fully local: all links must price to 0
		{0, 0, end},         // empty first segments, last link free
		{0, end, end},       // device 1 does all the work
		{3, 3, 3},           // one real cut, two pass-throughs
		{0, 3, end},         // one empty middle, one free tail
		{end / 2, end, end}, // lo==mid boundary
	}
	for _, cuts := range grid {
		st := c.stagesFor(cuts)
		if len(st) != len(cuts)+1 {
			t.Fatalf("cuts %v: %d stages", cuts, len(st))
		}
		for l, s := range st {
			if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
				t.Errorf("cuts %v stage %d: unusable value %g", cuts, l, s)
			}
		}
		for l, cut := range cuts {
			if cut == end && st[l+1] != 0 {
				t.Errorf("cuts %v: link %d must be free for an end cut, got %g", cuts, l, st[l+1])
			}
		}
		for dev := 1; dev < len(ch.Devices); dev++ {
			if ms := c.segmentComputeMs(dev, cuts); math.IsNaN(ms) || ms < 0 {
				t.Errorf("cuts %v device %d: segment compute %g", cuts, dev, ms)
			}
		}
	}
	empty := &ChainPlan{}
	if got := empty.AvgMs(); got != 0 {
		t.Errorf("empty ChainPlan AvgMs = %g, want 0", got)
	}
}

// n=0 and bad chains error instead of planning.
func TestChainRejectsBadN(t *testing.T) {
	g := models.MustBuild("alexnet")
	ch := fourTierChain()
	for _, f := range []func() error{
		func() error { _, err := JPSChain(g, ch, 0); return err },
		func() error { _, err := OneCutChain(g, ch, 0); return err },
		func() error { _, err := ChainBruteForce(g, ch, 0, 0); return err },
	} {
		if f() == nil {
			t.Error("n=0 must error")
		}
	}
	if _, err := ChainBruteForce(g, ch, 40, 10); !errors.Is(err, ErrSearchSpaceTooLarge) {
		t.Errorf("tiny budget must overflow, got %v", err)
	}
}

// Optimality chain on real models: the brute-force baseline can never
// lose to the heuristic planner, and the k-way planner can never lose
// to the single-cut baseline (it searches a superset).
func TestChainOptimalityOrder(t *testing.T) {
	ch := threeTierChain()
	g := models.MustBuild("alexnet")
	const eps = 1e-9
	for _, n := range []int{1, 2, 3, 4} {
		jps, err := JPSChain(g, ch, n)
		if err != nil {
			t.Fatal(err)
		}
		one, err := OneCutChain(g, ch, n)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := ChainBruteForce(g, ch, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bf.Makespan > jps.Makespan+eps {
			t.Errorf("n=%d: BF %.6f > JPSChain %.6f", n, bf.Makespan, jps.Makespan)
		}
		if jps.Makespan > one.Makespan+eps {
			t.Errorf("n=%d: JPSChain %.6f > 1-cut %.6f", n, jps.Makespan, one.Makespan)
		}
		if recomputed := flowshop.MakespanM(jps.Sequence); recomputed != jps.Makespan {
			t.Errorf("n=%d: stored makespan %g != recomputed %g", n, jps.Makespan, recomputed)
		}
	}
}

// A 4-device chain plans end to end, cut tuples stay non-decreasing,
// and intermediate compute stays bounded (validated, not scheduled).
func TestChainFourTier(t *testing.T) {
	g := models.MustBuild("resnet18")
	ch := fourTierChain()
	n := 12
	p, err := JPSChain(g, ch, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cuts) != n || len(p.Sequence) != n {
		t.Fatalf("plan sizes %d/%d", len(p.Cuts), len(p.Sequence))
	}
	c := buildChainCurves(g, ch)
	for i, cuts := range p.Cuts {
		if len(cuts) != 3 {
			t.Fatalf("job %d: %d cuts, want 3", i, len(cuts))
		}
		for l := 1; l < len(cuts); l++ {
			if cuts[l] < cuts[l-1] {
				t.Errorf("job %d: decreasing cuts %v", i, cuts)
			}
		}
		for dev := 1; dev < len(ch.Devices); dev++ {
			if ms := c.segmentComputeMs(dev, cuts); ms > p.Makespan {
				t.Errorf("job %d device %d: unscheduled compute %.1fms exceeds makespan %.1fms",
					i, dev, ms, p.Makespan)
			}
		}
	}
}

// Planning cost of the k-way path at depth 2, at the golden tables'
// n = 20 and the paper's n = 100. TestJPSChainAllocs pins the
// allocations; the repo benchmark's core.jpschain2_ms times the same
// call under paired runs.
func BenchmarkChainPlanning(b *testing.B) {
	g := models.MustBuild("alexnet")
	ch := threeTierChain()
	for _, leg := range []struct {
		name string
		n    int
	}{{"kway", 20}, {"kway-n100", 100}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := JPSChain(g, ch, leg.n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
