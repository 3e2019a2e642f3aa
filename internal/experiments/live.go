package experiments

import (
	"net"
	"slices"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/runtime"
	"dnnjps/internal/sim"
	"dnnjps/internal/tensor"
)

// What the live-runtime figures (runtime, trace, faults, batch, fleet,
// adapt) share: their inputs, their loopback connection, and a plan of
// either kind reduced to what a figure does with it.

// syntheticInputs builds n deterministic, distinct inputs for g.
func syntheticInputs(g *dag.Graph, n int) []*tensor.Tensor {
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		in := tensor.New(g.Node(g.Source()).OutShape)
		for j := range in.Data {
			in.Data[j] = float32((j+i*13)%29)/29 - 0.5
		}
		inputs[i] = in
	}
	return inputs
}

// syntheticBoundaries runs n synthetic inputs through the prefix of the
// cut and returns the boundary activations: real traffic for the probes
// that load the server without a mobile stage.
func syntheticBoundaries(m *engine.Model, units []profile.Unit, cut, n int) ([]*tensor.Tensor, error) {
	// The line view chunks the topological order at the unit exits, so
	// the prefix of a cut is that order up to the cut's exit.
	topo := m.Graph().Topo()
	prefix := topo[:slices.Index(topo, units[cut].Exit)+1]
	out := make([]*tensor.Tensor, n)
	for i, in := range syntheticInputs(m.Graph(), n) {
		acts := map[int]*tensor.Tensor{}
		if err := m.Execute(acts, in, prefix); err != nil {
			return nil, err
		}
		out[i] = acts[units[cut].Exit].Clone()
	}
	return out, nil
}

// dialLoopback serves one connection of srv on a fresh loopback
// listener and returns the client end. Closing srv stays with the
// caller, as does wrapping the connection in a fault injector.
func dialLoopback(srv *runtime.Server) (net.Conn, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		defer lis.Close()
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = srv.HandleConn(conn)
	}()
	return net.Dial("tcp", lis.Addr().String())
}

// livePlan is one plan as the live figures execute it, line-view or
// Alg. 3: its schedule, with B the modeled upload time of each job in
// channel ms (0: the job runs locally), and its entry points into the
// runtime.
type livePlan struct {
	seq   []flowshop.Job
	run   func(*runtime.Client, []*tensor.Tensor) (*runtime.Report, error)
	runFT func(*runtime.Runner, []*tensor.Tensor) (*runtime.FTReport, error)
	one   func(cl *runtime.Client, job int, in *tensor.Tensor) (*runtime.JobResult, error)
}

// liveLinePlan prices each job's upload as the shaper will: the infer
// frame's wire bytes on the channel model.
func liveLinePlan(g *dag.Graph, p *core.Plan, ch netsim.Channel) livePlan {
	units := profile.LineView(g)
	seq := make([]flowshop.Job, len(p.Sequence))
	for pos, j := range p.Sequence {
		seq[pos].ID = j.ID
		if cut := p.Cuts[j.ID]; cut < len(units)-1 { // a cut at the last unit runs fully local
			seq[pos].B = ch.TxMs(runtime.RequestWireBytes(g.Node(units[cut].Exit).OutShape))
		}
	}
	return livePlan{
		seq:   seq,
		run:   func(cl *runtime.Client, in []*tensor.Tensor) (*runtime.Report, error) { return cl.RunPlan(p, in) },
		runFT: func(r *runtime.Runner, in []*tensor.Tensor) (*runtime.FTReport, error) { return r.RunPlan(p, in) },
		one: func(cl *runtime.Client, job int, in *tensor.Tensor) (*runtime.JobResult, error) {
			return cl.RunJob(job, p.Cuts[job], in)
		},
	}
}

// liveGeneralPlan takes the schedule and the upload times from the
// plan's job-level view: the planner's own B, cut-tensor bytes with one
// channel setup per frame (frame headers, a few dozen bytes per tensor,
// are not in it).
func liveGeneralPlan(gp *core.GeneralPlan) livePlan {
	return livePlan{
		seq: gp.JobSequence(),
		run: func(cl *runtime.Client, in []*tensor.Tensor) (*runtime.Report, error) {
			return cl.RunGeneralPlan(gp, in)
		},
		runFT: func(r *runtime.Runner, in []*tensor.Tensor) (*runtime.FTReport, error) {
			return r.RunGeneralPlan(gp, in)
		},
		one: func(cl *runtime.Client, job int, in *tensor.Tensor) (*runtime.JobResult, error) {
			return cl.RunCutSet(job, gp.CutNodes[job], in)
		},
	}
}

// measured is the plan's schedule with what a run measured: A the
// mobile time of each job (results are sorted by job ID), B the modeled
// upload at the run's time scale — the inputs of the Prop. 4.1 closed
// form and of the simulator replay.
func (lp livePlan) measured(results []*runtime.JobResult, timeScale float64) []flowshop.Job {
	seq := make([]flowshop.Job, len(lp.seq))
	for pos, j := range lp.seq {
		seq[pos] = flowshop.Job{ID: j.ID, A: results[j.ID].MobileMs, B: timeScale * j.B}
	}
	return seq
}

// replay runs the measured schedule — mobile and cloud times as
// measured, uploads as modeled — through the event simulator, every
// duration divided by div (1: real ms; the time scale: channel ms).
func (lp livePlan) replay(results []*runtime.JobResult, timeScale, div float64) (*sim.Result, error) {
	n := len(lp.seq)
	f, g, cloud := make([]float64, n), make([]float64, n), make([]float64, n)
	for pos, j := range lp.measured(results, timeScale) {
		f[pos], g[pos], cloud[pos] = j.A/div, j.B/div, results[j.ID].CloudMs/div
	}
	return sim.Run(sim.FromDurations(f, g, cloud))
}

// serverLoad reads a traced server's suffix-stage cost: the wall time
// of its cloud-compute spans, each distinct (start, duration) interval
// counted once — batch members carry copies of their group's shared
// execution span — and the mean executed group size (1 when nothing
// was coalesced).
func serverLoad(o *runtime.Obs) (busyMs, meanBatch float64) {
	type interval struct{ start, dur int64 }
	seen := map[interval]bool{}
	var busyNs int64
	for _, sp := range o.Tracer.Spans() {
		if sp.Track != runtime.TrackServer || sp.Name != runtime.SpanCloudCompute {
			continue
		}
		if iv := (interval{sp.StartNs, sp.DurNs}); !seen[iv] {
			seen[iv] = true
			busyNs += sp.DurNs
		}
	}
	meanBatch = 1
	if c := o.BatchSize.Count(); c > 0 {
		meanBatch = o.BatchSize.Sum() / float64(c)
	}
	return float64(busyNs) / 1e6, meanBatch
}
