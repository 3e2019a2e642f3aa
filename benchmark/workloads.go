package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/profile"
	rt "dnnjps/internal/runtime"
	"dnnjps/internal/tensor"
)

// A workload is one closed-loop traffic mix: build sets it up from a seed,
// and the instance it returns does one round of fixed work per call. Every
// timing the benchmark reports is taken over such rounds.
type workload struct {
	name string
	why  string
	// warm is how many rounds run before timing starts. They belong to
	// set-up: caches fill, pools and arenas reach their steady size, lazy
	// goroutines start. About a second of them per workload.
	warm  int
	build func(seed int64, traced bool) (*instance, error)
}

var workloads = []workload{
	{
		name:  "alexnet-loopback",
		why:   "AlexNet fp32 plan of 8 jobs on an unshaped connection: engine conv GEMM and the fc6 GEMV are >90% of the round, runtime little, planner and shaper none",
		warm:  4,
		build: buildAlexnetLoopback,
	},
	{
		name:  "mobilenet-int8-4g",
		why:   "MobileNet-v2 int8 plan of 8 jobs over a 4G-shaped link: pacing sleeps and schedule overlap (Prop 4.1) set the time, so compute-side changes predict no move here",
		warm:  2,
		build: buildMobilenetInt8,
	},
	{
		name:  "fleet-head",
		why:   "2 tenants keep 256 tiny head jobs each in flight against the batching server: wire codec, fleet scheduler, coalescer and reply demux do the work, engine little",
		warm:  30,
		build: buildFleetHead,
	},
	{
		name:  "chain-2hop",
		why:   "64 jobs through a forwarding middle stage and a 2 ms each-way backhaul: stop-and-wait next-hop forwarding sets the time; the only workload a pipelined next hop can move",
		warm:  3,
		build: buildChain2Hop,
	},
	{
		name:  "plan-grid",
		why:   "planner only, no sockets, no engine: BuildCurve, JPS, Replan and 3-device JPSChain at n=100 for 4 models x 2 channels; where core/flowshop/profile do all the work",
		warm:  3,
		build: buildPlanGrid,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one set-up workload. The fields below round and close expose
// the pieces of it that the traced run probes layer by layer; workloads
// without a layer leave its fields zero.
type instance struct {
	jobs int // jobs per round
	// round does one round and returns the time in ms of each of its
	// sequential parts — one part for a round that is a single piece of
	// concurrent work: Report.MakespanMs for a plan, wall time otherwise —
	// and how many of its jobs broke the oracle. Spans go to rec under
	// parent; rec may be nil.
	round func(rec *recorder, parent int) (partMs []float64, failed int, err error)
	close func()

	loadMs, quantizeMs float64 // engine.Load and calibrate+quantize, timed in build

	model          *engine.Model
	input          *tensor.Tensor // a whole-model input
	prefix, suffix []int          // node lists either side of the probed cut

	addr     string         // the server the clients dial, for the ping probe
	batchMax int            // the server's batch cap, where it batches
	wire     netsim.Channel // shaped workloads only: the connection's channel
	scale    float64        // and its time scale
	conns    []*countConn   // client-side connections, traced build only
	obs      *rt.Obs        // traced build only
	line     *delayLine     // chain-2hop only
	grid     []*planRequest // plan-grid only
	sums     jobSums
	// Plan workloads, traced build: the best round so far and Prop 4.1's
	// closed form for that round, both in wall ms.
	bestMs, modelMs float64
}

// jobSums accumulates the per-job stage times the runtime reports in every
// JobResult. Rounds add to it from the goroutine that runs them.
type jobSums struct {
	mobile, comm, cloud, queueing float64
}

func (s *jobSums) add(results []*rt.JobResult) {
	for _, r := range results {
		s.mobile += r.MobileMs
		s.comm += r.CommMs
		s.cloud += r.CloudMs
		s.queueing += r.QueueMs
	}
}

// loopback is the unshaped channel: a bandwidth no write ever waits for and
// no per-message set-up latency (netsim.At would clamp that to 5 ms).
var loopback = netsim.Channel{Name: "loopback", UplinkMbps: 1e6}

// Planning devices: the paper's testbed pair.
var (
	mobileDev = profile.RaspberryPi4()
	cloudDev  = profile.CloudGPU()
)

// normalTensor fills a tensor of the shape with standard-normal values drawn
// from the seed.
func normalTensor(seed int64, shape tensor.Shape) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(shape)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func nodesOf(units []profile.Unit) []int {
	var nodes []int
	for _, u := range units {
		nodes = append(nodes, u.Nodes...)
	}
	return nodes
}

// unitByExit finds the cut position whose exit layer has the given name.
func unitByExit(g *dag.Graph, units []profile.Unit, layer string) (int, error) {
	for i, u := range units {
		if g.Node(u.Exit).Layer.Name() == layer {
			return i, nil
		}
	}
	return 0, fmt.Errorf("model %s has no cut after layer %q", g.Name(), layer)
}

// localClass is the oracle: the class the same model computes locally for a
// job cut after unit cut. The boundary crosses the cut the way the wire
// carries it — as int8 codes under the exit's calibrated mapping on a
// quantized model — so an offloaded job must agree exactly.
func localClass(m *engine.Model, units []profile.Unit, cut int, input *tensor.Tensor) (int, error) {
	acts := map[int]*tensor.Tensor{}
	if err := m.Execute(acts, input, nodesOf(units[:cut+1])); err != nil {
		return 0, err
	}
	if cut == len(units)-1 {
		return engine.Argmax(acts[m.Graph().Sink()]), nil
	}
	return suffixClass(m, units, cut, acts[units[cut].Exit])
}

// suffixClass finishes a job locally from its boundary tensor.
func suffixClass(m *engine.Model, units []profile.Unit, cut int, boundary *tensor.Tensor) (int, error) {
	exit := units[cut].Exit
	if m.IsQuantized() {
		qp, err := m.ActivationQParams(exit)
		if err != nil {
			return 0, err
		}
		boundary = tensor.QuantizeTensor(boundary, qp).Dequantize()
	}
	acts := map[int]*tensor.Tensor{exit: boundary}
	if err := m.Execute(acts, nil, nodesOf(units[cut+1:])); err != nil {
		return 0, err
	}
	return engine.Argmax(acts[m.Graph().Sink()]), nil
}

// served is a server on a loopback port with an accept loop of the
// benchmark's own, so that stop can wait for every connection handler.
type served struct {
	srv *rt.Server
	lis net.Listener
	wg  sync.WaitGroup
}

func serve(srv *rt.Server) (*served, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, lis: lis}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				// A handler's error is its client's error too, and the
				// round reports that one.
				_ = srv.HandleConn(conn)
			}()
		}
	}()
	return s, nil
}

func (s *served) addr() string { return s.lis.Addr().String() }

// stop returns once the accept loop and every handler have exited; close the
// clients' connections first, or it waits for them.
func (s *served) stop() {
	s.lis.Close()
	s.wg.Wait()
	s.srv.Close()
}

// dial connects to addr; the traced build counts what crosses the socket.
func dial(addr string, inst *instance, traced bool) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if !traced {
		return conn, nil
	}
	cc := &countConn{Conn: conn}
	inst.conns = append(inst.conns, cc)
	return cc, nil
}

// newObs returns the runtime's own instrument set for the traced build, nil
// otherwise. The ring keeps the most recent spans; stage means are taken
// over what it holds.
func newObs(traced bool) *rt.Obs {
	if !traced {
		return nil
	}
	return rt.NewObs(obs.NewTracer(1<<16), obs.NewMetrics())
}

// planSpec describes a workload that executes a JPS plan of jobsPerPlan jobs
// with Client.RunPlan.
type planSpec struct {
	model  string
	int8   bool
	priced netsim.Channel // the channel the plan is priced at
	wire   netsim.Channel // the channel the connection is shaped to
	scale  float64        // time scale of the shaped connection
}

const jobsPerPlan = 8

func buildAlexnetLoopback(seed int64, traced bool) (*instance, error) {
	return buildPlanRun(seed, traced, planSpec{model: "alexnet", priced: netsim.WiFi, wire: loopback, scale: 1})
}

func buildMobilenetInt8(seed int64, traced bool) (*instance, error) {
	return buildPlanRun(seed, traced, planSpec{model: "mobilenetv2", int8: true, priced: netsim.FourG, wire: netsim.FourG, scale: 0.5})
}

func buildPlanRun(seed int64, traced bool, spec planSpec) (*instance, error) {
	g, err := models.Build(spec.model)
	if err != nil {
		return nil, err
	}
	inst := &instance{jobs: jobsPerPlan, obs: newObs(traced)}
	t0 := time.Now()
	m := engine.Load(g, seed)
	inst.loadMs = msSince(t0)
	mobile, dt := mobileDev, tensor.Float32
	if spec.int8 {
		t0 = time.Now()
		cal, err := m.CalibrateSynthetic(2)
		if err != nil {
			return nil, err
		}
		if m, err = m.Quantize(cal); err != nil {
			return nil, err
		}
		inst.quantizeMs = msSince(t0)
		mobile, dt = mobile.Quantized(), tensor.Int8
	}
	curve := profile.BuildCurve(g, mobile, cloudDev, spec.priced, dt)
	plan, err := core.JPS(curve, jobsPerPlan)
	if err != nil {
		return nil, err
	}
	limit, err := baselineLimit(curve, jobsPerPlan)
	if err != nil {
		return nil, err
	}
	if err := checkPlan(plan, limit); err != nil {
		return nil, err
	}

	units := profile.LineView(g)
	inputs := make([]*tensor.Tensor, jobsPerPlan)
	want := make([]int, jobsPerPlan)
	for i := range inputs {
		inputs[i] = normalTensor(seed+int64(i)+1, g.Node(units[0].Exit).OutShape)
		if want[i], err = localClass(m, units, plan.Cuts[i], inputs[i]); err != nil {
			return nil, err
		}
	}

	// The probed cut is the one most jobs of the plan use.
	cut := dominantCut(plan.Cuts)
	inst.model, inst.input = m, inputs[0]
	inst.prefix, inst.suffix = nodesOf(units[:cut+1]), nodesOf(units[cut+1:])
	// What the shaper charges each job's upload, in wall ms.
	upMs := make([]float64, jobsPerPlan)
	for i, c := range plan.Cuts {
		if c == len(units)-1 {
			continue // fully local: nothing crosses the link
		}
		shape := g.Node(units[c].Exit).OutShape
		bytes := rt.RequestWireBytes(shape)
		if spec.int8 {
			bytes = rt.QuantRequestWireBytes(shape)
		}
		upMs[i] = spec.scale * spec.wire.TxMs(bytes)
	}

	srv, err := serve(rt.NewServer(m).WithObs(inst.obs))
	if err != nil {
		return nil, err
	}
	conn, err := dial(srv.addr(), inst, traced)
	if err != nil {
		srv.stop()
		return nil, err
	}
	cl := rt.NewClient(conn, m, spec.wire, spec.scale).WithObs(inst.obs)
	inst.addr = srv.addr()
	if spec.wire != loopback {
		inst.wire, inst.scale = spec.wire, spec.scale
	}
	inst.close = func() {
		conn.Close()
		srv.stop()
	}
	inst.round = func(rec *recorder, parent int) ([]float64, int, error) {
		var rep *rt.Report
		var err error
		rec.call("client.run_plan", parent, func() { rep, err = cl.RunPlan(plan, inputs) })
		if err != nil {
			return nil, 0, err
		}
		failed := 0
		for _, r := range rep.Results {
			if r.Shed || r.Class != want[r.JobID] {
				failed++
			}
		}
		inst.sums.add(rep.Results)
		if traced && (inst.bestMs == 0 || rep.MakespanMs < inst.bestMs) {
			// Prop 4.1 for this round: its own measured prefix times and
			// the uploads the shaper enforces, in the planned order.
			seq := make([]flowshop.Job, len(plan.Sequence))
			for pos, j := range plan.Sequence {
				seq[pos] = flowshop.Job{ID: j.ID, A: rep.Results[j.ID].MobileMs, B: upMs[j.ID]}
			}
			inst.bestMs, inst.modelMs = rep.MakespanMs, flowshop.FormulaMakespan(seq)
		}
		return []float64{rep.MakespanMs}, failed, nil
	}
	return inst, nil
}

func dominantCut(cuts []int) int {
	count := map[int]int{}
	best := cuts[0]
	for _, c := range cuts {
		count[c]++
		if count[c] > count[best] {
			best = c
		}
	}
	return best
}

// distinctBoundaries is how many different boundary tensors the
// boundary-job workloads cycle through; each costs a whole prefix in set-up.
const distinctBoundaries = 4

// countWrong counts the results whose class differs from the one the
// boundary they carried must produce; job i carried proto i mod
// distinctBoundaries. A shed job is a failure too.
func countWrong(results []*rt.JobResult, want []int) int {
	failed := 0
	for i, r := range results {
		if r.Shed || r.Class != want[i%len(want)] {
			failed++
		}
	}
	return failed
}

// boundaryJobs is the common front of the two boundary-job workloads:
// MobileNet-v2 fp32 loaded from the seed, a cut after the named layer, and
// the boundary tensors one connection sends per round — real prefix outputs
// of distinctBoundaries seeded inputs, in turn — with the class each must
// come back as.
type boundaryJobs struct {
	inst       *instance
	m          *engine.Model
	units      []profile.Unit
	cut        int
	boundaries []*tensor.Tensor
	want       []int // by proto: job i carries proto i mod distinctBoundaries
}

func newBoundaryJobs(seed int64, traced bool, layer string, perConn int) (*boundaryJobs, error) {
	g, err := models.Build("mobilenetv2")
	if err != nil {
		return nil, err
	}
	b := &boundaryJobs{inst: &instance{obs: newObs(traced)}, units: profile.LineView(g)}
	t0 := time.Now()
	b.m = engine.Load(g, seed)
	b.inst.loadMs = msSince(t0)
	if b.cut, err = unitByExit(g, b.units, layer); err != nil {
		return nil, err
	}
	prefix := nodesOf(b.units[:b.cut+1])
	protos := make([]*tensor.Tensor, distinctBoundaries)
	b.want = make([]int, distinctBoundaries)
	for i := range protos {
		b.inst.input = normalTensor(seed+int64(i)+1, g.Node(b.units[0].Exit).OutShape)
		acts := map[int]*tensor.Tensor{}
		if err := b.m.Execute(acts, b.inst.input, prefix); err != nil {
			return nil, err
		}
		protos[i] = acts[b.units[b.cut].Exit].Clone()
		if b.want[i], err = suffixClass(b.m, b.units, b.cut, protos[i]); err != nil {
			return nil, err
		}
	}
	b.boundaries = make([]*tensor.Tensor, perConn)
	for i := range b.boundaries {
		b.boundaries[i] = protos[i%len(protos)]
	}
	b.inst.model = b.m
	b.inst.prefix, b.inst.suffix = prefix, nodesOf(b.units[b.cut+1:])
	return b, nil
}

const (
	fleetConns       = 2   // one per core of the reference host
	fleetJobsPerConn = 256 // in flight at once on each connection
	fleetBatchMax    = 32  // the server's coalescing cap
)

func buildFleetHead(seed int64, traced bool) (*instance, error) {
	b, err := newBoundaryJobs(seed, traced, "head/gap", fleetJobsPerConn)
	if err != nil {
		return nil, err
	}
	inst, m, cut, boundaries, want := b.inst, b.m, b.cut, b.boundaries, b.want
	inst.jobs = fleetConns * fleetJobsPerConn

	srv, err := serve(rt.NewServer(m).WithBatching(2*time.Millisecond, fleetBatchMax).WithObs(inst.obs))
	if err != nil {
		return nil, err
	}
	var conns []net.Conn
	inst.close = func() {
		for _, c := range conns {
			c.Close()
		}
		srv.stop()
	}
	clients := make([]*rt.Client, fleetConns)
	for i := range clients {
		conn, err := dial(srv.addr(), inst, traced)
		if err != nil {
			inst.close()
			return nil, err
		}
		conns = append(conns, conn)
		clients[i] = rt.NewClient(conn, m, loopback, 1).
			WithTenant(fmt.Sprintf("tenant-%d", i)).WithObs(inst.obs)
	}
	inst.addr, inst.batchMax = srv.addr(), fleetBatchMax

	inst.round = func(rec *recorder, parent int) ([]float64, int, error) {
		reps := make([]*rt.Report, len(clients))
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		start := time.Now()
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *rt.Client) {
				defer wg.Done()
				rec.call("client.run_boundary_jobs", parent, func() {
					reps[i], errs[i] = cl.RunBoundaryJobs(cut, boundaries)
				})
			}(i, cl)
		}
		wg.Wait()
		ms := msSince(start)
		failed := 0
		for i, rep := range reps {
			if errs[i] != nil {
				return nil, 0, errs[i]
			}
			failed += countWrong(rep.Results, want)
			inst.sums.add(rep.Results)
		}
		return []float64{ms}, failed, nil
	}
	return inst, nil
}

const (
	chainJobs     = 64
	backhaulDelay = 2 * time.Millisecond // one way
)

func buildChain2Hop(seed int64, traced bool) (*instance, error) {
	b, err := newBoundaryJobs(seed, traced, "bneck15/add", chainJobs)
	if err != nil {
		return nil, err
	}
	inst, m, units, cut, boundaries, want := b.inst, b.m, b.units, b.cut, b.boundaries, b.want
	inst.jobs = chainJobs
	g := m.Graph()
	handoff, err := unitByExit(g, units, "head/gap")
	if err != nil {
		return nil, err
	}

	// client -> middle stage -> delay line -> terminal stage. Only the
	// client-facing stage is instrumented: the runtime's span names do not
	// say which stage recorded them.
	terminal, err := serve(rt.NewServer(m))
	if err != nil {
		return nil, err
	}
	handoffShape := g.Node(units[handoff].Exit).OutShape
	line, err := newDelayLine(terminal.addr(), backhaulDelay, rt.RequestWireBytes(handoffShape), rt.ReplyWireBytes)
	if err != nil {
		terminal.stop()
		return nil, err
	}
	inst.line = line
	stopBackhaul := func() {
		line.Close()
		terminal.stop()
	}
	midSrv, err := rt.NewServer(m).WithObs(inst.obs).WithNextHop(line.Addr(), handoff)
	if err != nil {
		stopBackhaul()
		return nil, err
	}
	middle, err := serve(midSrv)
	if err != nil {
		stopBackhaul()
		return nil, err
	}
	conn, err := dial(middle.addr(), inst, traced)
	if err != nil {
		middle.stop()
		stopBackhaul()
		return nil, err
	}
	cl := rt.NewClient(conn, m, loopback, 1).WithObs(inst.obs)
	inst.addr = middle.addr()
	inst.close = func() {
		conn.Close()
		middle.stop()
		stopBackhaul()
	}
	inst.round = func(rec *recorder, parent int) ([]float64, int, error) {
		var rep *rt.Report
		var err error
		start := time.Now()
		rec.call("client.run_boundary_jobs", parent, func() { rep, err = cl.RunBoundaryJobs(cut, boundaries) })
		if err != nil {
			return nil, 0, err
		}
		ms := msSince(start)
		inst.sums.add(rep.Results)
		return []float64{ms}, countWrong(rep.Results, want), nil
	}
	return inst, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
