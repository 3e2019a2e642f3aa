package experiments

import (
	"fmt"

	"dnnjps/internal/core"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/report"
)

// RobustnessRow quantifies what a bandwidth estimation error costs:
// the plan is made against the estimated channel, but the stream
// actually transmits at the true bandwidth. Regret is the makespan
// excess over re-planning with perfect knowledge.
type RobustnessRow struct {
	ErrPct       float64 // true bandwidth = estimate * (1 + ErrPct/100)
	JPSActualMs  float64
	JPSOracleMs  float64
	JPSRegretPct float64
	POActualMs   float64
	PORegretPct  float64
}

// Robustness sweeps estimation errors for one model around an
// estimated channel.
func Robustness(env Env, model string, est netsim.Channel, errPcts []float64) ([]RobustnessRow, error) {
	g := mustModel(model)
	estCurve := env.curveFor(g, est)
	jpsPlan, err := core.JPS(estCurve, env.NJobs)
	if err != nil {
		return nil, err
	}
	poPlan, err := core.PO(estCurve, env.NJobs)
	if err != nil {
		return nil, err
	}

	var rows []RobustnessRow
	for _, e := range errPcts {
		actualBw := est.UplinkMbps * (1 + e/100)
		if actualBw <= 0 {
			return nil, fmt.Errorf("experiments: error %g%% drives bandwidth non-positive", e)
		}
		// Only the bandwidth was misestimated; the per-message setup
		// latency is the estimated channel's.
		actual := netsim.Channel{
			Name:       fmt.Sprintf("%s%+.0f%%", est.Name, e),
			UplinkMbps: actualBw,
			SetupMs:    est.SetupMs,
		}
		actualCurve := env.curveFor(g, actual)

		oracle, err := core.JPS(actualCurve, env.NJobs)
		if err != nil {
			return nil, err
		}
		row := RobustnessRow{
			ErrPct:      e,
			JPSActualMs: replay(jpsPlan, actualCurve),
			JPSOracleMs: oracle.Makespan,
			POActualMs:  replay(poPlan, actualCurve),
		}
		row.JPSRegretPct = pctOver(row.JPSActualMs, row.JPSOracleMs)
		row.PORegretPct = pctOver(row.POActualMs, row.JPSOracleMs)
		rows = append(rows, row)
	}
	return rows, nil
}

// replay executes a plan's cut choices against a different curve (the
// compute stage is bandwidth-independent; the upload stage re-prices
// at the true channel) and re-sequences with Johnson — the device
// would reorder its queue for free.
func replay(p *core.Plan, actual *profile.Curve) float64 {
	return flowshop.Makespan(flowshop.Johnson(core.JobsForCuts(actual, p.Cuts)))
}

func pctOver(actual, oracle float64) float64 {
	if oracle <= 0 {
		return 0
	}
	r := (actual - oracle) / oracle * 100
	if r < 0 {
		return 0
	}
	return r
}

// RobustnessTable renders the rows.
func RobustnessTable(model string, est netsim.Channel, rows []RobustnessRow) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Extension — bandwidth misestimation for %s (planned at %s)", displayName(model), est),
		"Err %", "JPS actual (ms)", "JPS oracle (ms)", "JPS regret %", "PO actual (ms)", "PO regret %")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%+.0f", r.ErrPct), r.JPSActualMs, r.JPSOracleMs,
			r.JPSRegretPct, r.POActualMs, r.PORegretPct)
	}
	return t
}
