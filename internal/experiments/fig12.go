package experiments

import (
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/report"
)

// Fig12Cell is one (model, channel) cell of the latency grid: the
// average completion time (makespan / n) of the four schemes.
type Fig12Cell struct {
	Model   string
	Channel string
	COMs    float64
	LOMs    float64
	POMs    float64
	JPSMs   float64
	// COFeasible is false when the cloud-only upload alone exceeds 4s,
	// the paper's cutoff for omitting CO bars at 3G.
	COFeasible bool
}

// Fig12 computes the grid for the paper's four models and three
// channels with env.NJobs jobs.
func Fig12(env Env) ([]Fig12Cell, error) {
	var cells []Fig12Cell
	for _, model := range models.PaperModels() {
		g := mustModel(model)
		for _, ch := range netsim.Presets() {
			co, lo, po, jps, err := env.schemes(g, ch, env.NJobs)
			if err != nil {
				return nil, err
			}
			cells = append(cells, Fig12Cell{
				Model:      model,
				Channel:    ch.Name,
				COMs:       co,
				LOMs:       lo,
				POMs:       po,
				JPSMs:      jps,
				COFeasible: co <= 4000,
			})
		}
	}
	return cells, nil
}

// Fig12Table renders the grid as one row per (model, channel).
func Fig12Table(cells []Fig12Cell) *report.Table {
	t := report.NewTable("Fig. 12 — average completion time (ms) of CO/LO/PO/JPS",
		"Model", "Channel", "CO", "LO", "PO", "JPS")
	for _, c := range cells {
		co := fmtMs(c.COMs)
		if !c.COFeasible {
			co += " (omitted: >4s)"
		}
		t.AddRow(displayName(c.Model), c.Channel, co, fmtMs(c.LOMs), fmtMs(c.POMs), fmtMs(c.JPSMs))
	}
	return t
}

// Table1Row is the latency reduction versus LO (%) of PO and JPS at
// one channel — the paper's Table 1.
type Table1Row struct {
	Model   string
	Channel string
	POPct   float64
	JPSPct  float64
}

// Table1 derives the reduction table from Fig. 12 cells.
func Table1(cells []Fig12Cell) []Table1Row {
	rows := make([]Table1Row, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, Table1Row{
			Model:   c.Model,
			Channel: c.Channel,
			POPct:   pct(c.LOMs, c.POMs),
			JPSPct:  pct(c.LOMs, c.JPSMs),
		})
	}
	return rows
}

// Table1Table renders the reduction table in the paper's layout: one
// row per model, PO/JPS columns per channel.
func Table1Table(rows []Table1Row) *report.Table {
	t := report.NewTable("Table 1 — latency reduction ratio compared with LO (%)",
		"Model", "3G PO", "3G JPS", "4G PO", "4G JPS", "Wi-Fi PO", "Wi-Fi JPS")
	byModel := map[string]map[string]Table1Row{}
	var order []string
	for _, r := range rows {
		if byModel[r.Model] == nil {
			byModel[r.Model] = map[string]Table1Row{}
			order = append(order, r.Model)
		}
		byModel[r.Model][r.Channel] = r
	}
	for _, m := range order {
		g := byModel[m]
		t.AddRow(displayName(m),
			g["3G"].POPct, g["3G"].JPSPct,
			g["4G"].POPct, g["4G"].JPSPct,
			g["Wi-Fi"].POPct, g["Wi-Fi"].JPSPct)
	}
	return t
}

// OverheadRow is one model's planning cost (Fig. 12d): the wall time
// JPS spends profiling lookups + binary search + Johnson scheduling,
// against the makespan it schedules.
type OverheadRow struct {
	Model      string
	PlanMs     float64
	MakespanMs float64
	// OverheadRatio = (makespan + planning) / makespan — Fig. 12d's
	// "overhead is negligible" claim is this ratio staying ~1.0.
	OverheadRatio float64
}

// Fig12Overhead measures planning wall time per model at the given
// channel (curves are prebuilt lookup tables, as in the paper, so the
// measured cost is the planner itself).
func Fig12Overhead(env Env, ch netsim.Channel) ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, model := range models.PaperModels() {
		g := mustModel(model)
		curve := env.curveFor(g, ch) // lookup table, built ahead of time
		const reps = 50
		start := time.Now()
		var plan *core.Plan
		var err error
		for i := 0; i < reps; i++ {
			plan, err = core.JPS(curve, env.NJobs)
			if err != nil {
				return nil, err
			}
		}
		planMs := float64(time.Since(start).Microseconds()) / 1000 / reps
		rows = append(rows, OverheadRow{
			Model:         model,
			PlanMs:        planMs,
			MakespanMs:    plan.Makespan,
			OverheadRatio: (plan.Makespan + planMs) / plan.Makespan,
		})
	}
	return rows, nil
}

// Fig12OverheadTable renders the overhead rows.
func Fig12OverheadTable(rows []OverheadRow) *report.Table {
	t := report.NewTable("Fig. 12(d) — JPS planning overhead",
		"Model", "Plan(ms)", "Makespan(ms)", "Overhead ratio")
	for _, r := range rows {
		t.AddRow(displayName(r.Model), r.PlanMs, r.MakespanMs, r.OverheadRatio)
	}
	return t
}
