package experiments

import (
	"fmt"
	"io"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/engine"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/report"
	"dnnjps/internal/runtime"
	"dnnjps/internal/sim"
)

// TraceResult holds one instrumented live run bridged into Gantt form
// next to its analytic prediction: Measured reshapes the recorded
// spans (internal/obs) into channel-scale busy intervals, Predicted
// replays the same per-job durations (measured device and cloud
// compute, channel-model upload) through the discrete-event simulator
// — the Prop. 4.1 pipeline the plan was optimized for. Agreement
// between the two is the closure argument: the runtime executes the
// schedule the theory priced.
type TraceResult struct {
	Model     string
	Jobs      int
	TimeScale float64
	// Tracer keeps the raw spans for export (Chrome trace, JSON).
	Tracer *obs.Tracer
	// Measured and Predicted are directly comparable sim.Results.
	Measured  *sim.Result
	Predicted *sim.Result
}

// RuntimeTrace executes a JPS plan on the live runtime over loopback
// TCP with tracing attached to both ends (one tracer, one clock), then
// bridges the recorded spans into the simulator's Gantt form alongside
// the predicted timeline.
func RuntimeTrace(env Env, model string, ch netsim.Channel, n int, timeScale float64) (*TraceResult, error) {
	g := mustModel(model)
	const seed = 42
	m := engine.Load(g, seed)
	plan, err := core.JPS(env.curveFor(g, ch), n)
	if err != nil {
		return nil, err
	}
	lp := liveLinePlan(g, plan, ch)

	tr := obs.NewTracer(0)
	rep, err := runOnce(m, lp, syntheticInputs(g, n), ch, timeScale, runtime.NewObs(tr, obs.NewMetrics()))
	if err != nil {
		return nil, err
	}

	// Remote jobs each leave one upload span; the writer records it
	// just after the flush that precedes the reply, so give the
	// bookkeeping a moment to settle before snapshotting.
	remote := 0
	for _, j := range lp.seq {
		if j.B > 0 {
			remote++
		}
	}
	stages := sim.RuntimeStages()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(sim.FromTrace(tr.Spans(), stages, timeScale).Gantt[sim.ResUplink]) >= remote {
			break
		}
		time.Sleep(time.Millisecond)
	}
	measured := sim.FromTrace(tr.Spans(), stages, timeScale)

	// Predicted timeline: measured f and cloud, channel-model g, in
	// schedule order — exactly what RuntimePipeline feeds Prop. 4.1 —
	// on the bridge's channel-ms axis.
	predicted, err := lp.replay(rep.Results, timeScale, timeScale)
	if err != nil {
		return nil, err
	}

	return &TraceResult{
		Model:     model,
		Jobs:      n,
		TimeScale: timeScale,
		Tracer:    tr,
		Measured:  measured,
		Predicted: predicted,
	}, nil
}

// traceLanes converts a sim Gantt into report lanes labeled by job.
func traceLanes(res *sim.Result) map[string][]report.GanttBar {
	lanes := make(map[string][]report.GanttBar, len(res.Gantt))
	for resName, ivs := range res.Gantt {
		bars := make([]report.GanttBar, 0, len(ivs))
		for _, iv := range ivs {
			bars = append(bars, report.GanttBar{
				Label: fmt.Sprintf("j%d", iv.JobID),
				Start: iv.Start,
				End:   iv.End,
			})
		}
		lanes[resName] = bars
	}
	return lanes
}

// TraceGantt renders the measured and predicted stage timelines as
// ASCII Gantt charts on a shared resource order, for eyeballing where
// the live pipeline and the theory diverge.
func TraceGantt(w io.Writer, r *TraceResult, width int) error {
	order := []string{sim.ResMobile, sim.ResUplink, sim.ResCloud}
	if _, err := fmt.Fprintf(w, "Measured trace — %s, %d jobs (makespan %.2f ms)\n",
		displayName(r.Model), r.Jobs, r.Measured.Makespan); err != nil {
		return err
	}
	if err := report.Gantt(w, traceLanes(r.Measured), order, width); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nPredicted (Prop. 4.1 pipeline) — makespan %.2f ms\n",
		r.Predicted.Makespan); err != nil {
		return err
	}
	return report.Gantt(w, traceLanes(r.Predicted), order, width)
}

// TraceTable summarizes per-resource agreement between the measured
// and predicted timelines.
func TraceTable(r *TraceResult) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Trace vs theory — %s, %d jobs (measured makespan %s, predicted %s)",
			displayName(r.Model), r.Jobs, fmtMs(r.Measured.Makespan), fmtMs(r.Predicted.Makespan)),
		"Resource", "Busy meas(ms)", "Busy pred(ms)", "Util meas", "Util pred", "Delta")
	for _, resName := range []string{sim.ResMobile, sim.ResUplink, sim.ResCloud} {
		mb, pb := r.Measured.BusyMs[resName], r.Predicted.BusyMs[resName]
		delta := "n/a"
		if pb > 0 {
			delta = fmt.Sprintf("%+.1f%%", (mb-pb)/pb*100)
		}
		t.AddRow(resName, fmtMs(mb), fmtMs(pb),
			fmt.Sprintf("%.2f", r.Measured.Utilization(resName)),
			fmt.Sprintf("%.2f", r.Predicted.Utilization(resName)), delta)
	}
	return t
}
