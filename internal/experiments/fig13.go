package experiments

import (
	"dnnjps/internal/netsim"
	"dnnjps/internal/report"
)

// Fig13Row is one bandwidth point of the benefit-range sweep: average
// completion time of each scheme at that uplink bandwidth.
type Fig13Row struct {
	Mbps  float64
	LOMs  float64
	COMs  float64
	POMs  float64
	JPSMs float64
}

// DefaultBandwidths covers the paper's [1, 80] Mb/s sweep.
func DefaultBandwidths() []float64 {
	var out []float64
	for b := 1.0; b <= 80; b += 1 {
		out = append(out, b)
	}
	return out
}

// Fig13 sweeps the uplink bandwidth for one model (the paper plots
// AlexNet and MobileNet-v2).
func Fig13(env Env, model string, bandwidths []float64) ([]Fig13Row, error) {
	g := mustModel(model)
	rows := make([]Fig13Row, 0, len(bandwidths))
	for _, b := range bandwidths {
		co, lo, po, jps, err := env.schemes(g, netsim.At(b), env.NJobs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig13Row{Mbps: b, LOMs: lo, COMs: co, POMs: po, JPSMs: jps})
	}
	return rows, nil
}

// BenefitRange returns the bandwidth interval over which JPS is
// strictly faster (by margin, e.g. 0.01 = 1%) than both LO and CO —
// the paper's "benefit range" discussion of Fig. 13.
func BenefitRange(rows []Fig13Row, margin float64) (lo, hi float64, ok bool) {
	for _, r := range rows {
		better := r.JPSMs < r.LOMs*(1-margin) && r.JPSMs < r.COMs*(1-margin)
		if better {
			if !ok {
				lo, ok = r.Mbps, true
			}
			hi = r.Mbps
		}
	}
	return lo, hi, ok
}

// Fig13Table renders the sweep.
func Fig13Table(model string, rows []Fig13Row) *report.Table {
	t := report.NewTable("Fig. 13 — latency vs bandwidth for "+displayName(model)+" (avg ms)",
		"Mbps", "LO", "CO", "PO", "JPS")
	for _, r := range rows {
		t.AddRow(r.Mbps, r.LOMs, r.COMs, r.POMs, r.JPSMs)
	}
	return t
}
