package experiments

import (
	"fmt"

	"dnnjps/internal/core"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/netsim"
	"dnnjps/internal/report"
)

// Fig14Row is one mix-ratio point: with the two JPS candidate cuts
// fixed, Ratio = (#computation-heavy jobs at l*) / (#communication-
// heavy jobs at l*-1), and MakespanS maps bandwidth (Mb/s) to the
// resulting makespan in seconds — the paper sweeps 9/10/11 Mb/s.
type Fig14Row struct {
	Ratio     float64
	MakespanS map[float64]float64
}

// Fig14 sweeps the computation-heavy : communication-heavy job ratio
// for one model at the given bandwidths. The paper uses ResNet
// (ratios 2..9) and GoogLeNet (ratios 0.2..1).
func Fig14(env Env, model string, ratios, bandwidths []float64) ([]Fig14Row, error) {
	g := mustModel(model)
	rows := make([]Fig14Row, 0, len(ratios))
	for _, ratio := range ratios {
		if ratio <= 0 {
			return nil, fmt.Errorf("experiments: non-positive ratio %g", ratio)
		}
		row := Fig14Row{Ratio: ratio, MakespanS: map[float64]float64{}}
		for _, b := range bandwidths {
			ch := netsim.At(b)
			curve := env.curveFor(g, ch)
			search, idx, err := core.SearchCurve(curve)
			if err != nil {
				return nil, err
			}
			lstar := search.LStar
			if lstar == 0 {
				lstar = 1 // need two adjacent candidates to mix
			}
			// ratio = compHeavy/commHeavy; commHeavy jobs sit at l*-1.
			commHeavy := int(float64(env.NJobs) / (1 + ratio))
			if commHeavy < 0 {
				commHeavy = 0
			}
			if commHeavy > env.NJobs {
				commHeavy = env.NJobs
			}
			cuts := make([]int, env.NJobs)
			for i := range cuts {
				if i < commHeavy {
					cuts[i] = idx[lstar-1]
				} else {
					cuts[i] = idx[lstar]
				}
			}
			jobs := core.JobsForCuts(curve, cuts)
			row.MakespanS[b] = flowshop.Makespan(flowshop.Johnson(jobs)) / 1000
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BestRatio returns the ratio with the smallest makespan at one
// bandwidth.
func BestRatio(rows []Fig14Row, mbps float64) float64 {
	best, bestV := 0.0, 0.0
	for i, r := range rows {
		v, ok := r.MakespanS[mbps]
		if !ok {
			continue
		}
		if i == 0 || v < bestV {
			best, bestV = r.Ratio, v
		}
	}
	return best
}

// Fig14Table renders the sweep with one column per bandwidth.
func Fig14Table(model string, bandwidths []float64, rows []Fig14Row) *report.Table {
	headers := []string{"Ratio"}
	for _, b := range bandwidths {
		headers = append(headers, fmt.Sprintf("%gMbps (s)", b))
	}
	t := report.NewTable("Fig. 14 — makespan vs comp:comm job ratio for "+displayName(model), headers...)
	for _, r := range rows {
		cells := []any{fmt.Sprintf("%.2f", r.Ratio)}
		for _, b := range bandwidths {
			cells = append(cells, fmt.Sprintf("%.3f", r.MakespanS[b]))
		}
		t.AddRow(cells...)
	}
	return t
}
