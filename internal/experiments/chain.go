package experiments

import (
	"fmt"

	"dnnjps/internal/core"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/report"
)

// ChainRow compares k-way chain planning against the best single cut
// on the same device chain, for one model, uplink, and chain depth
// (depth = number of network hops; depth 1 is the paper's two-tier
// setting, depth 2 the three-tier extension).
type ChainRow struct {
	Model    string
	Uplink   string
	Depth    int
	OneCutMs float64
	KWayMs   float64
	GainPct  float64
}

// ChainEnvDefault builds the depth-d device chain the extension
// experiments use. Depth 1 is the paper's two-tier pair over the
// uplink. Depth 2 is the three-tier topology: a quarter-speed edge box
// one wireless hop away, then a WAN backhaul to the cloud at HALF the
// wireless bandwidth. The thin second hop is what makes a middle tier
// pay off: under a single cut the tensor crosses both hops and the
// backhaul becomes the pipeline bottleneck, while the two-cut plan lets
// the edge absorb the middle layers so a much smaller tensor hits the
// slow hop. With a backhaul faster than the uplink, one cut is already
// near-optimal and the edge adds nothing — reproduced by
// TestThreeTierFastBackhaulAddsNothing. Depth 3 splits the WAN segment
// in two: the same quarter-speed metro edge over the thin backhaul,
// then a half-speed regional box one short hop further, then the cloud
// over a full-bandwidth backbone — each extra hop is another place a
// k-way plan can park middle layers that a single cut must ship across
// the whole path.
func ChainEnvDefault(env Env, uplink netsim.Channel, depth int) (core.Chain, error) {
	edge := env.Cloud.Scaled(0.25)
	backhaul := netsim.Channel{Name: "wan-backhaul", UplinkMbps: uplink.UplinkMbps / 2, SetupMs: 15}
	switch depth {
	case 1:
		return core.TwoTierChain(env.Mobile, env.Cloud, uplink, env.DType), nil
	case 2:
		return core.Chain{
			Devices: []profile.Device{env.Mobile, edge, env.Cloud},
			Links:   []netsim.Channel{uplink, backhaul},
			DType:   env.DType,
		}, nil
	case 3:
		return core.Chain{
			Devices: []profile.Device{env.Mobile, edge, env.Cloud.Scaled(0.5), env.Cloud},
			Links: []netsim.Channel{
				uplink,
				backhaul,
				{Name: "wan-backbone", UplinkMbps: uplink.UplinkMbps, SetupMs: 5},
			},
			DType: env.DType,
		}, nil
	default:
		return core.Chain{}, fmt.Errorf("experiments: chain depth %d not in [1,3]", depth)
	}
}

// chainRows plans every model × preset uplink × depth in [lo, hi] cell
// with the k-way planner and with the best-single-cut baseline.
func chainRows(env Env, modelNames []string, lo, hi int) ([]ChainRow, error) {
	var rows []ChainRow
	for _, model := range modelNames {
		g := mustModel(model)
		for _, up := range netsim.Presets() {
			for depth := lo; depth <= hi; depth++ {
				ch, err := ChainEnvDefault(env, up, depth)
				if err != nil {
					return nil, err
				}
				kway, err := core.JPSChain(g, ch, env.NJobs)
				if err != nil {
					return nil, err
				}
				one, err := core.OneCutChain(g, ch, env.NJobs)
				if err != nil {
					return nil, err
				}
				rows = append(rows, ChainRow{
					Model:    model,
					Uplink:   up.Name,
					Depth:    depth,
					OneCutMs: one.AvgMs(),
					KWayMs:   kway.AvgMs(),
					GainPct:  pct(one.AvgMs(), kway.AvgMs()),
				})
			}
		}
	}
	return rows, nil
}

// ThreeTier is the mobile→edge→cloud comparison over the paper models
// and preset uplinks: the depth-2 chain, two cuts per job against one.
func ThreeTier(env Env) ([]ChainRow, error) {
	return chainRows(env, models.PaperModels(), 2, 2)
}

// ThreeTierTable renders ThreeTier's rows.
func ThreeTierTable(rows []ChainRow) *report.Table {
	t := report.NewTable("Extension — three-tier mobile→edge→cloud vs two-tier (avg ms/job)",
		"Model", "Uplink", "Two-tier", "Three-tier", "Gain %")
	for _, r := range rows {
		t.AddRow(displayName(r.Model), r.Uplink, r.OneCutMs, r.KWayMs, r.GainPct)
	}
	return t
}

// ChainDepth sweeps chain depth 1–3 for two line models across the
// preset uplinks, planning each chain with the k-way planner and with
// the best-single-cut baseline. Gain is the k-way improvement over one
// cut; at depth 1 both planners see the same search space, so the row
// doubles as a sanity anchor (gain 0).
func ChainDepth(env Env) ([]ChainRow, error) {
	return chainRows(env, []string{"alexnet", "mobilenetv2"}, 1, 3)
}

// ChainDepthTable renders the depth sweep.
func ChainDepthTable(rows []ChainRow) *report.Table {
	t := report.NewTable("Extension — k-way chain planning vs best single cut (avg ms/job)",
		"Model", "Uplink", "Hops", "1-cut", "k-way", "Gain %")
	for _, r := range rows {
		t.AddRow(displayName(r.Model), r.Uplink, r.Depth, r.OneCutMs, r.KWayMs, r.GainPct)
	}
	return t
}

// ChainGapRow measures the k-way heuristic's distance from the
// offline-optimal brute force on one small instance.
type ChainGapRow struct {
	Model  string
	Depth  int
	NJobs  int
	BFMs   float64
	KWayMs float64
	GapPct float64
}

// ChainGap compares JPSChain to ChainBruteForce on instances small
// enough to enumerate exactly (n jobs, exhaustive sequencing): the
// heuristic-gap leg of the chain experiment. Gap is how far the
// heuristic's makespan sits above the optimum, in percent.
func ChainGap(env Env, n int) ([]ChainGapRow, error) {
	var rows []ChainGapRow
	for _, model := range []string{"alexnet", "mobilenetv2"} {
		g := mustModel(model)
		for depth := 2; depth <= 3; depth++ {
			ch, err := ChainEnvDefault(env, netsim.FourG, depth)
			if err != nil {
				return nil, err
			}
			bf, err := core.ChainBruteForce(g, ch, n, 2_000_000)
			if err != nil {
				return nil, err
			}
			kway, err := core.JPSChain(g, ch, n)
			if err != nil {
				return nil, err
			}
			gap := 0.0
			if bf.Makespan > 0 {
				gap = (kway.Makespan - bf.Makespan) / bf.Makespan * 100
			}
			rows = append(rows, ChainGapRow{
				Model:  model,
				Depth:  depth,
				NJobs:  n,
				BFMs:   bf.Makespan,
				KWayMs: kway.Makespan,
				GapPct: gap,
			})
		}
	}
	return rows, nil
}

// ChainGapTable renders the heuristic-gap rows.
func ChainGapTable(rows []ChainGapRow) *report.Table {
	t := report.NewTable("Extension — k-way heuristic vs offline-optimal brute force (makespan ms)",
		"Model", "Hops", "Jobs", "Brute force", "k-way", "Gap %")
	for _, r := range rows {
		t.AddRow(displayName(r.Model), r.Depth, r.NJobs, r.BFMs, r.KWayMs, r.GapPct)
	}
	return t
}
