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
	"dnnjps/internal/tensor"
)

// RuntimeResult compares one live run of the offloading runtime
// against the paper's analytic makespan models: the same JPS plan is
// executed pipelined (full-duplex writer + reply demultiplexer) and
// synchronously (per-job round trips), then replayed through the
// discrete-event simulator and the Prop. 4.1 closed form using the
// measured per-job timings.
type RuntimeResult struct {
	Model     string // display label of the model (and of the plan, for an Alg. 3 row)
	Jobs      int
	TimeScale float64
	// PipelinedMs is the measured makespan of the full-duplex run.
	PipelinedMs float64
	// SyncMs is the measured makespan of the synchronous baseline.
	SyncMs float64
	// FormulaMs is Prop. 4.1's f(x_1) + max(Σf, Σg) + g(x_n) with
	// measured mobile times and channel-model upload times.
	FormulaMs float64
	// SimMs replays the measured durations through the event simulator.
	SimMs float64
}

// Speedup is the pipelining gain over the synchronous baseline.
func (r *RuntimeResult) Speedup() float64 {
	if r.PipelinedMs <= 0 {
		return 0
	}
	return r.SyncMs / r.PipelinedMs
}

// RuntimePipeline executes a JPS plan on the live runtime over
// loopback TCP: the client and the server run in-process with real
// engine compute, the channel is simulated at timeScale. Unlike the
// planning experiments, which cost out both devices analytically, the
// live run computes prefix and suffix at this host's speed — so the
// result validates pipeline structure (overlap, ordering), not
// absolute device timings.
func RuntimePipeline(env Env, model string, ch netsim.Channel, n int, timeScale float64) (*RuntimeResult, error) {
	g := mustModel(model)
	plan, err := core.JPS(env.curveFor(g, ch), n)
	if err != nil {
		return nil, err
	}
	return runtimePipeline(env, g, liveLinePlan(g, plan, ch), displayName(model), ch, timeScale)
}

// RuntimePipelineGeneral is RuntimePipeline for the model's Algorithm 3
// plan: the pipelined run is Client.RunGeneralPlan, the synchronous
// baseline one RunCutSet at a time in the same order, and the analytic
// references are computed over the plan's job-level view.
func RuntimePipelineGeneral(env Env, model string, ch netsim.Channel, n int, timeScale float64) (*RuntimeResult, error) {
	g := mustModel(model)
	gp, err := core.PlanGeneral(g, env.Mobile, env.Cloud, ch, env.DType, n, 0)
	if err != nil {
		return nil, err
	}
	return runtimePipeline(env, g, liveGeneralPlan(gp), displayName(model)+" (Alg. 3)", ch, timeScale)
}

func runtimePipeline(env Env, g *dag.Graph, lp livePlan, label string, ch netsim.Channel, timeScale float64) (*RuntimeResult, error) {
	m := engine.Load(g, 42)
	n := len(lp.seq)
	inputs := syntheticInputs(g, n)

	// Pipelined run.
	rep, err := runOnce(m, lp, inputs, ch, timeScale, nil)
	if err != nil {
		return nil, err
	}

	// Synchronous baseline: same plan, same sequence, one round trip at
	// a time, on a server as fresh as the first run's, timed from its
	// first job.
	syncLeg := lp
	syncLeg.run = func(cl *runtime.Client, in []*tensor.Tensor) (*runtime.Report, error) {
		start := time.Now()
		for _, j := range lp.seq {
			if _, err := lp.one(cl, j.ID, in[j.ID]); err != nil {
				return nil, err
			}
		}
		return &runtime.Report{MakespanMs: float64(time.Since(start)) / float64(time.Millisecond)}, nil
	}
	syncRep, err := runOnce(m, syncLeg, inputs, ch, timeScale, nil)
	if err != nil {
		return nil, err
	}

	// Analytic references from the measured run: f is the measured
	// mobile prefix time, g the channel model's upload time (what the
	// shaper enforces), cloud the measured server compute.
	simRes, err := lp.replay(rep.Results, timeScale, 1)
	if err != nil {
		return nil, err
	}

	return &RuntimeResult{
		Model:       label,
		Jobs:        n,
		TimeScale:   timeScale,
		PipelinedMs: rep.MakespanMs,
		SyncMs:      syncRep.MakespanMs,
		FormulaMs:   flowshop.FormulaMakespan(lp.measured(rep.Results, timeScale)),
		SimMs:       simRes.Makespan,
	}, nil
}

// RuntimeTable renders live-runtime results against their analytic
// references.
func RuntimeTable(results []*RuntimeResult) *report.Table {
	t := report.NewTable(
		"Live runtime — pipelined vs synchronous execution vs Prop. 4.1",
		"Model", "Jobs", "Pipelined(ms)", "Sync(ms)", "Speedup", "Prop4.1(ms)", "Sim(ms)")
	for _, r := range results {
		t.AddRow(r.Model, r.Jobs, fmtMs(r.PipelinedMs), fmtMs(r.SyncMs),
			fmt.Sprintf("%.2fx", r.Speedup()), fmtMs(r.FormulaMs), fmtMs(r.SimMs))
	}
	return t
}
