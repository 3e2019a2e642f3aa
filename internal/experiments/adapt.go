package experiments

import (
	"fmt"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/estimator"
	"dnnjps/internal/netsim"
	"dnnjps/internal/nn"
	"dnnjps/internal/profile"
	"dnnjps/internal/report"
	"dnnjps/internal/runtime"
	"dnnjps/internal/tensor"
)

// The adapt figure runs one scripted degradation — the uplink steps
// from 12 to 2 Mb/s at 200 ms channel time — under three re-planning
// policies and compares their measured makespans:
//
//   - static:     the original 12 Mb/s plan runs to completion.
//   - continuous: the estimator path. The CUSUM detector snaps the
//     estimate to the degraded rate within a sample or two and the
//     replan prices at 2 Mb/s, switching to the cut that regime wants.
//   - oracle:     knows the schedule a priori; jobs that fit before the
//     step keep the 12 Mb/s cut, the rest start on the 2 Mb/s cut.
//
// AdaptModel is shaped so the policies genuinely disagree: a cheap conv
// boundary (36 KB) is optimal from 12 down to ~3.8 Mb/s, and a wide
// Dense layer whose mobile cost dominates below that makes its small
// output (8.4 KB) the 2 Mb/s cut. Moving that Dense from cloud to
// mobile is what the correct replan buys: less upload per job for the
// same total compute, so the continuous row wins on any host speed.

// AdaptStepAfterMs and AdaptStepToMbps script the figure's step-down
// (channel time); AdaptChannel is its nominal uplink. Exported so the
// regression corpus test replans on exactly the figure's channel.
const (
	AdaptStepAfterMs = 200
	AdaptStepToMbps  = 2
)

// AdaptChannel returns the figure's nominal 12 Mb/s channel.
func AdaptChannel() netsim.Channel {
	return netsim.Channel{Name: "adapt-wifi", UplinkMbps: 12}
}

// AdaptCurve profiles the adapt model on the adapt channel — the exact
// curve the figure plans on, exported so the regression corpus can
// recompute the golden cuts from first principles.
func AdaptCurve(env Env) *profile.Curve {
	return env.curveFor(AdaptModel(), AdaptChannel())
}

// AdaptModel builds the synthetic chain the adapt figure and the
// committed adaptive-replanning regression trace are pinned to.
func AdaptModel() *dag.Graph {
	g := dag.New("adaptnet")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(3, 48, 48)})
	c1 := g.Add(&nn.Conv2D{LayerName: "conv1", OutC: 16, KH: 3, KW: 3, Stride: 2, Pad: 1, Bias: true}, in)
	d1 := g.Add(&nn.Dense{LayerName: "wide", Out: 2100, Bias: true}, c1)
	d2 := g.Add(&nn.Dense{LayerName: "mid", Out: 3600, Bias: true}, d1)
	fc := g.Add(&nn.Dense{LayerName: "fc", Out: 10, Bias: true}, d2)
	g.Add(nn.NewSoftmax("softmax"), fc)
	if err := g.Finalize(); err != nil {
		panic(err) // static architecture; cannot fail
	}
	return g
}

// AdaptRow is one policy of the adapt figure.
type AdaptRow struct {
	Policy       string
	Jobs         int
	MakespanMs   float64
	Replans      int
	ChangePoints int
	EstMbps      float64 // final estimate (continuous only)
	Cuts         string  // cut histogram, e.g. "9@1 87@2"
}

// RuntimeAdapt executes the three policies and returns their rows plus
// the continuous run's recorded estimator trace (the regression corpus
// raw material). timeScale compresses channel time as elsewhere.
func RuntimeAdapt(env Env, n int, timeScale float64, seed int64) ([]*AdaptRow, *estimator.ReplayTrace, error) {
	g := AdaptModel()
	m := engine.Load(g, 7)
	ch := AdaptChannel()
	curve := env.curveFor(g, ch)

	basePlan, err := core.JPS(curve, n)
	if err != nil {
		return nil, nil, err
	}
	oracle, err := oraclePlan(curve, ch, n)
	if err != nil {
		return nil, nil, err
	}

	inputs := syntheticInputs(g, n)

	policies := []struct {
		name string
		plan *core.Plan
		opts runtime.RunOptions
	}{
		{"static", basePlan, adaptRunOpts(runtime.RunOptions{})},
		{"continuous", basePlan, adaptRunOpts(runtime.RunOptions{
			AdaptiveReplan:    true,
			ReplanMinInterval: 5 * time.Millisecond,
		})},
		{"oracle", oracle, adaptRunOpts(runtime.RunOptions{})},
	}

	loopback, stop, err := serve(runtime.NewServer(m))
	if err != nil {
		return nil, nil, err
	}
	defer stop()
	step := netsim.FaultSpec{Degrade: netsim.StepDown(AdaptStepAfterMs, AdaptStepToMbps)}
	var rows []*AdaptRow
	var trace *estimator.ReplayTrace
	for pi, pol := range policies {
		dial := injected(loopback, step, seed+int64(pi), timeScale, ch)
		r := runtime.NewRunner(dial, m, ch, timeScale, pol.opts).WithCurve(curve)
		rep, err := r.RunPlan(pol.plan, inputs)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: adapt %s run: %w", pol.name, err)
		}
		if len(rep.Results) != n {
			return nil, nil, fmt.Errorf("experiments: adapt %s run: %d/%d results", pol.name, len(rep.Results), n)
		}
		rows = append(rows, &AdaptRow{
			Policy:       pol.name,
			Jobs:         n,
			MakespanMs:   rep.MakespanMs,
			Replans:      rep.Replans,
			ChangePoints: rep.ChangePoints,
			EstMbps:      rep.EstimatedMbps,
			Cuts:         cutHistogram(rep),
		})
		if pol.name == "continuous" {
			trace = buildAdaptTrace(curve, ch, rep.ReplaySamples)
		}
	}
	return rows, trace, nil
}

// adaptRunOpts fills the shared run options of every adapt policy.
func adaptRunOpts(o runtime.RunOptions) runtime.RunOptions {
	o.JobTimeout = 30 * time.Second
	o.BackoffBase = 2 * time.Millisecond
	o.BackoffMax = 20 * time.Millisecond
	o.Window = 2
	return o
}

// oraclePlan builds the perfect-foresight schedule: the largest prefix
// of jobs the nominal-rate plan can push through the uplink before the
// step keeps that plan's cuts, and the remaining jobs are planned at
// the degraded rate from the start. The split point comes from the
// modeled two-stage schedule (serialized mobile stage feeding the
// serialized uplink), not from this host's wall clock — the oracle
// knows the degradation schedule, nothing else extra.
func oraclePlan(curve *profile.Curve, ch netsim.Channel, n int) (*core.Plan, error) {
	degraded := ch
	degraded.UplinkMbps = AdaptStepToMbps

	k := 0
	for k < n {
		p, err := core.JPS(curve, k+1)
		if err != nil {
			return nil, err
		}
		if p.Makespan > AdaptStepAfterMs { // p's final upload leaves the link after the step
			break
		}
		k++
	}

	out := &core.Plan{Method: "oracle", Curve: curve, Cuts: make([]int, n)}
	if k > 0 {
		pre, err := core.JPS(curve, k)
		if err != nil {
			return nil, err
		}
		copy(out.Cuts, pre.Cuts)
		out.Sequence = append(out.Sequence, pre.Sequence...)
	}
	if k < n {
		post, err := core.Replan(curve, degraded, n-k)
		if err != nil {
			return nil, err
		}
		for i, cut := range post.Cuts {
			out.Cuts[k+i] = cut
		}
		for _, j := range post.Sequence {
			j.ID += k
			out.Sequence = append(out.Sequence, j)
		}
	}
	return out, nil
}

// cutHistogram summarizes which cut each job finished at, e.g. "9@1 87@2".
func cutHistogram(rep *runtime.FTReport) string {
	counts := map[int]int{}
	maxCut := 0
	for _, res := range rep.Results {
		counts[res.Cut]++
		if res.Cut > maxCut {
			maxCut = res.Cut
		}
	}
	s := ""
	for c := 0; c <= maxCut; c++ {
		if counts[c] == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%d@%d", counts[c], c)
	}
	return s
}

// AdaptTraceBatch is the remaining-batch size a replay point's Cut is
// computed over. A single-job plan degenerates (one job cannot mix
// cuts, so the fat and small cut tie near 2 Mb/s), while the dominant
// cut of a 16-job replan is the regime a mixed schedule actually
// shifts toward.
const AdaptTraceBatch = 16

// DominantCut returns the most frequent cut of a plan (lowest wins a
// tie) — the regime label the adapt trace's replay points carry.
func DominantCut(p *core.Plan) int {
	counts := map[int]int{}
	best, bestN := -1, 0
	for _, c := range p.Cuts {
		counts[c]++
		if counts[c] > bestN || (counts[c] == bestN && c < best) {
			best, bestN = c, counts[c]
		}
	}
	return best
}

// buildAdaptTrace packages the continuous run's recorded sample stream
// as the committed regression format: golden change points re-detected
// by a deterministic replay, each with the dominant cut a replan of an
// adaptTraceBatch-job remainder at its snapped estimate chooses on the
// figure's curve.
func buildAdaptTrace(curve *profile.Curve, ch netsim.Channel, samples []estimator.ReplaySample) *estimator.ReplayTrace {
	t := &estimator.ReplayTrace{
		Model:      curve.Model,
		UplinkMbps: ch.UplinkMbps,
		SetupMs:    ch.SetupMs,
		Scenario: fmt.Sprintf("scripted step-down %g->%g Mb/s at %d ms channel time (netsim.StepDown)",
			ch.UplinkMbps, float64(AdaptStepToMbps), AdaptStepAfterMs),
		Config:  estimator.DefaultConfig(),
		Samples: samples,
	}
	for _, cp := range t.Replay() {
		measured := ch
		measured.UplinkMbps = cp.ToMbps
		cut := -1
		if p, err := core.Replan(curve, measured, AdaptTraceBatch); err == nil {
			cut = DominantCut(p)
		}
		t.Points = append(t.Points, estimator.ReplayPoint{
			Sample:    cp.Sample,
			Direction: cp.Direction.String(),
			Mbps:      cp.ToMbps,
			Cut:       cut,
		})
	}
	return t
}

// RuntimeAdaptTable renders the three-policy comparison.
func RuntimeAdaptTable(rows []*AdaptRow) *report.Table {
	t := report.NewTable(
		"Adaptive replanning — makespan under a scripted 12->2 Mb/s step at 200 ms",
		"Policy", "Jobs", "Makespan(ms)", "vs static", "vs oracle", "Replans", "ChangePts", "Est(Mb/s)", "Cuts")
	var static, oracle float64
	for _, r := range rows {
		switch r.Policy {
		case "static":
			static = r.MakespanMs
		case "oracle":
			oracle = r.MakespanMs
		}
	}
	rel := func(base, v float64) string {
		if base <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", v/base)
	}
	for _, r := range rows {
		est := "-"
		if r.EstMbps > 0 {
			est = fmt.Sprintf("%.2f", r.EstMbps)
		}
		t.AddRow(r.Policy, r.Jobs, fmtMs(r.MakespanMs),
			rel(static, r.MakespanMs), rel(oracle, r.MakespanMs),
			r.Replans, r.ChangePoints, est, r.Cuts)
	}
	return t
}
