package experiments

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

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

// The one harness of the live-runtime figures (runtime, trace, faults,
// batch, fleet, adapt). Each figure is its configuration plus one call:
//   - runOnce runs a plan on a fresh server (runtime, both legs; trace);
//   - flood fires headJobs' traffic from concurrent clients (batch at
//     one client, fleet at N);
//   - serve and injected give the runner figures (faults, adapt) a
//     loopback dial through a fault injector.
//
// Around them: the figures' inputs, and a plan of either kind reduced
// to what a figure does with it.

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

// serve puts srv behind one loopback listener. dial opens a client
// connection to it; stop closes the listener, then the server.
func serve(srv *runtime.Server) (dial func() (net.Conn, error), stop func(), err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go func() { _ = srv.Serve(lis) }()
	dial = func() (net.Conn, error) { return net.Dial("tcp", lis.Addr().String()) }
	return dial, func() { lis.Close(); srv.Close() }, nil
}

// injected wraps the client end of each connection dial opens in a
// fault injector: spec on the uplink, the k-th dial seeded seed+k (k
// from 1). The injector is told the client shaper's nominal rate, so a
// scripted Degrade cap is the effective rate on the wire, not a second
// pacing stage stacked under the shaper's.
func injected(dial func() (net.Conn, error), spec netsim.FaultSpec, seed int64, timeScale float64, nominal netsim.Channel) func() (net.Conn, error) {
	var k int64
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		k++
		return netsim.Inject(conn, spec, netsim.FaultSpec{}, seed+k, timeScale).WithNominal(nominal), nil
	}
}

// runOnce runs lp once over loopback on a fresh server of m, the
// client and the server both reporting to o (nil: nowhere).
func runOnce(m *engine.Model, lp livePlan, inputs []*tensor.Tensor, ch netsim.Channel, timeScale float64, o *runtime.Obs) (*runtime.Report, error) {
	dial, stop, err := serve(runtime.NewServer(m).WithObs(o))
	if err != nil {
		return nil, err
	}
	defer stop()
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return lp.run(runtime.NewClient(conn, m, ch, timeScale).WithObs(o), inputs)
}

// headJobs is the traffic of the probes that load the server without a
// mobile stage: the deepest offloaded cut whose suffix still holds
// parameterized compute, and four distinct real boundary activations
// there, recycled across jobs (computing one heavy prefix per job would
// only delay the probe). The suffix is the model's head — for the
// paper's models a small upload and a weight-streaming-bound remainder;
// past it the server would only run an unparameterized epilogue, which
// batching cannot help.
func headJobs(m *engine.Model) (cut int, protos []*tensor.Tensor, err error) {
	g := m.Graph()
	units := profile.LineView(g)
	cut = len(units) - 2
	tailParams := int64(0)
	for i := len(units) - 2; i >= 0; i-- {
		for _, id := range units[i+1].Nodes {
			tailParams += g.NodeParams(id)
		}
		if tailParams > 0 {
			cut = i
			break
		}
	}
	protos, err = syntheticBoundaries(m, units, cut, 4)
	return cut, protos, err
}

// flood serves srv and fires jobs head jobs at cut (boundaries recycled
// from protos) from each of clients concurrent loopback connections,
// each with its own tenant ID, all at once via Client.RunBoundaryJobs;
// it stops srv once every reply is in. It returns each client's report
// and the wall time from the first dial to the last reply.
func flood(srv *runtime.Server, m *engine.Model, ch netsim.Channel, timeScale float64, cut int, protos []*tensor.Tensor, clients, jobs int) ([]*runtime.Report, float64, error) {
	dial, stop, err := serve(srv)
	if err != nil {
		return nil, 0, err
	}
	defer stop()
	boundaries := make([]*tensor.Tensor, jobs)
	for i := range boundaries {
		boundaries[i] = protos[i%len(protos)]
	}
	reps, errs := make([]*runtime.Report, clients), make([]error, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := dial()
			if err != nil {
				errs[c] = err
				return
			}
			defer conn.Close()
			reps[c], errs[c] = runtime.NewClient(conn, m, ch, timeScale).
				WithTenant(fmt.Sprintf("client-%02d", c)).RunBoundaryJobs(cut, boundaries)
		}()
	}
	wg.Wait()
	return reps, float64(time.Since(t0)) / float64(time.Millisecond), errors.Join(errs...)
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
// its cloud-compute spans cover, overlapping spans counted once — batch
// members carry copies of their group's shared execution span, and
// concurrent workers' spans overlap — and the mean executed group size
// (1 when nothing was coalesced).
func serverLoad(o *runtime.Obs) (busyMs, meanBatch float64) {
	var busyNs, end int64
	for _, sp := range o.Tracer.Spans() { // sorted by start
		if sp.Track != runtime.TrackServer || sp.Name != runtime.SpanCloudCompute {
			continue
		}
		if from := max(sp.StartNs, end); sp.EndNs() > from {
			busyNs += sp.EndNs() - from
			end = sp.EndNs()
		}
	}
	meanBatch = 1
	if c := o.BatchSize.Count(); c > 0 {
		meanBatch = o.BatchSize.Sum() / float64(c)
	}
	return float64(busyNs) / 1e6, meanBatch
}
