package experiments

import (
	"fmt"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/netsim"
	"dnnjps/internal/report"
	"dnnjps/internal/runtime"
)

// FaultRow is one fault-rate point of the runtime-faults figure: the
// same JPS plan executed through the fault-tolerant runner under
// injected uplink frame drops, compared against the no-fault Prop. 4.1
// closed form (measured mobile times, channel-model upload times).
type FaultRow struct {
	Model      string // display label of the model (and of the plan, for an Alg. 3 row)
	Jobs       int
	DropPct    float64 // injected per-frame drop probability, percent
	MakespanMs float64
	FormulaMs  float64 // no-fault closed form for this run's plan
	Reconnects int
	Retried    int
	LocalJobs  int // jobs finished by the local fallback
}

// Ratio is the fault-induced slowdown over the no-fault closed form.
func (r *FaultRow) Ratio() float64 {
	if r.FormulaMs <= 0 {
		return 0
	}
	return r.MakespanMs / r.FormulaMs
}

// RuntimeFaults runs the fault-tolerance figure: one live pipelined run
// per drop rate (e.g. {0, 1, 5, 20} percent), each over loopback TCP
// with a seeded fault injector on the client side of the connection.
// Every run must complete all n jobs — the runner retries lost jobs
// and falls back to local execution if the link dies — so the figure
// reports how much makespan the recovery machinery costs, not whether
// jobs survive.
func RuntimeFaults(env Env, model string, ch netsim.Channel, n int, timeScale float64, dropPcts []float64, seed int64) ([]*FaultRow, error) {
	g := mustModel(model)
	plan, err := core.JPS(env.curveFor(g, ch), n)
	if err != nil {
		return nil, err
	}
	return runtimeFaults(env, g, liveLinePlan(g, plan, ch), displayName(model), ch, timeScale, dropPcts, seed)
}

// RuntimeFaultsGeneral is RuntimeFaults for the model's Algorithm 3
// plan: the same runner, the same recovery, boundary sets on the wire.
func RuntimeFaultsGeneral(env Env, model string, ch netsim.Channel, n int, timeScale float64, dropPcts []float64, seed int64) ([]*FaultRow, error) {
	g := mustModel(model)
	gp, err := core.PlanGeneral(g, env.Mobile, env.Cloud, ch, env.DType, n, 0)
	if err != nil {
		return nil, err
	}
	return runtimeFaults(env, g, liveGeneralPlan(gp), displayName(model)+" (Alg. 3)", ch, timeScale, dropPcts, seed)
}

func runtimeFaults(env Env, g *dag.Graph, lp livePlan, label string, ch netsim.Channel, timeScale float64, dropPcts []float64, seed int64) ([]*FaultRow, error) {
	m := engine.Load(g, 42)
	n := len(lp.seq)
	inputs := syntheticInputs(g, n)

	// Per-job deadline: the reply wait covers the (scaled) upload plus
	// the server's suffix inference, which runs at real compute speed
	// whatever the time scale. Budget both from a measured full forward
	// pass, with headroom so only genuinely lost jobs trip the deadline.
	var gWallMax float64
	for _, j := range lp.seq {
		gWallMax = max(gWallMax, timeScale*j.B)
	}
	t0 := time.Now()
	if _, err := m.Forward(inputs[0].Clone()); err != nil {
		return nil, err
	}
	fullMs := float64(time.Since(t0)) / float64(time.Millisecond)
	jobTimeout := time.Duration((4*(fullMs+gWallMax) + 250) * float64(time.Millisecond))

	loopback, stop, err := serve(runtime.NewServer(m))
	if err != nil {
		return nil, err
	}
	defer stop()
	var rows []*FaultRow
	for ri, pct := range dropPcts {
		dial := injected(loopback, netsim.FaultSpec{DropProb: pct / 100}, seed+int64(100*ri), timeScale, ch)
		r := runtime.NewRunner(dial, m, ch, timeScale, runtime.RunOptions{
			JobTimeout:    jobTimeout,
			MaxReconnects: 20,
			BackoffBase:   2 * time.Millisecond,
			BackoffMax:    20 * time.Millisecond,
			Seed:          seed + int64(ri),
		})
		rep, err := lp.runFT(r, inputs)
		if err != nil {
			return nil, fmt.Errorf("experiments: faults run at %.0f%%: %w", pct, err)
		}
		if len(rep.Results) != n {
			return nil, fmt.Errorf("experiments: faults run at %.0f%%: %d/%d results", pct, len(rep.Results), n)
		}

		// No-fault closed form from this run's own measured mobile times
		// (prefix compute is unaffected by link faults) and the channel
		// model's upload times — the reference the 1.5x acceptance bound
		// is stated against.
		rows = append(rows, &FaultRow{
			Model:      label,
			Jobs:       n,
			DropPct:    pct,
			MakespanMs: rep.MakespanMs,
			FormulaMs:  flowshop.FormulaMakespan(lp.measured(rep.Results, timeScale)),
			Reconnects: rep.Reconnects,
			Retried:    rep.RetriedJobs,
			LocalJobs:  rep.LocalFallbackJobs,
		})
	}
	return rows, nil
}

// RuntimeFaultsTable renders the fault sweep.
func RuntimeFaultsTable(rows []*FaultRow) *report.Table {
	t := report.NewTable(
		"Fault-tolerant runtime — makespan under injected uplink frame drops",
		"Model", "Jobs", "Drop%", "Makespan(ms)", "NoFault Prop4.1(ms)", "Ratio", "Reconnects", "Retried", "LocalJobs")
	for _, r := range rows {
		t.AddRow(r.Model, r.Jobs, fmt.Sprintf("%.0f%%", r.DropPct),
			fmtMs(r.MakespanMs), fmtMs(r.FormulaMs), fmt.Sprintf("%.2fx", r.Ratio()),
			r.Reconnects, r.Retried, r.LocalJobs)
	}
	return t
}
