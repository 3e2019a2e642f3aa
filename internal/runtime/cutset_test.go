package runtime

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/engine"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// TestRunGeneralPlanPipelines is "it pipelines" without a clock: the
// peer reads all n set frames before it writes a single reply, so the
// run can only finish if every job is on the wire before any answer
// comes back. A client that holds the connection from request to reply
// (the second client generation this replaced) sends frame 2 never.
func TestRunGeneralPlanPipelines(t *testing.T) {
	m := branchedModel(t)
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	cl := NewClient(cConn, m, netsim.WiFi, 1e-6)

	const n = 6
	peer := fakePeer(sConn, func(r *bufio.Reader, w *bufio.Writer) error {
		ids := make([]uint32, n)
		for i := range ids {
			req, err := readRequest(r)
			if err != nil {
				return err
			}
			if len(req.Pairs) != 2 {
				return fmt.Errorf("frame %d carries %d pairs, want the two-tensor set", i, len(req.Pairs))
			}
			ids[i] = req.JobID
		}
		for _, id := range ids {
			if err := writeInferReply(w, &inferReply{JobID: id, Class: int32(50 + id)}); err != nil {
				return err
			}
		}
		return nil
	})

	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = input(i)
	}
	type outcome struct {
		rep *Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := cl.RunGeneralPlan(uniformGeneralPlan(n, twoTensorCut(t, m)), inputs)
		done <- outcome{rep, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		for i, res := range out.rep.Results {
			if res.JobID != i || res.Class != 50+i || res.Cut != -1 {
				t.Errorf("result %d: job %d class %d cut %d, want %d/%d/-1", i, res.JobID, res.Class, res.Cut, i, 50+i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunGeneralPlan did not finish against a peer that answers only after the last frame: not pipelined")
	}
	if err := <-peer; err != nil {
		t.Fatal(err)
	}
}

// TestUnitExitClosureIsUnitPrefix pins the routing rule's premise over
// the model zoo: the ancestor closure of every line-view unit exit is
// exactly that unit's prefix, so "one boundary tensor at a unit exit"
// and "a line cut at that unit" are the same partition.
func TestUnitExitClosureIsUnitPrefix(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		prefix := map[int]bool{}
		for k, u := range profile.LineView(g) {
			for _, id := range u.Nodes {
				prefix[id] = true
			}
			closure := g.Ancestors(u.Exit)
			if len(closure) != len(prefix) {
				t.Fatalf("%s unit %d: exit closure has %d nodes, unit prefix %d", name, k, len(closure), len(prefix))
			}
			for id := range closure {
				if !prefix[id] {
					t.Fatalf("%s unit %d: node %d is an ancestor of the exit but not in the unit prefix", name, k, id)
				}
			}
		}
	}
}

// countingConn counts the bytes its owner writes.
type countingConn struct {
	net.Conn
	written atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.written.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// TestGeneralPlanOfLineCutsMatchesRunPlanOnTheWire: a job's frame is a
// property of its boundary, not of the method called. A general plan
// whose cut sets are single unit exits (what PlanGeneralBest returns
// when a line plan wins) must put the same frames — job, boundary
// nodes, size, in the same order — and the same byte count on the wire
// as RunPlan of the line plan it came from: one pair each, at the cut
// unit's exit.
func TestGeneralPlanOfLineCutsMatchesRunPlanOnTheWire(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("loads and runs zoo models")
	}
	const n = 3
	for _, name := range []string{"alexnet", "mobilenetv2", "squeezenet"} {
		g := models.MustBuild(name)
		m := engine.Load(g, 42)
		units := profile.LineView(g)
		curve := profile.BuildCurve(g, profile.RaspberryPi4(), profile.CloudGPU(), netsim.WiFi, tensor.Float32)
		p, err := core.JPS(curve, n)
		if err != nil {
			t.Fatal(err)
		}
		gp := &core.GeneralPlan{CutNodes: make([][]int, n), Channel: netsim.WiFi}
		for j, cut := range p.Cuts {
			gp.CutNodes[j] = []int{units[cut].Exit}
		}
		for _, fj := range p.Sequence {
			gp.Sequence = append(gp.Sequence, core.PathJob{Job: fj.ID, ActualF: fj.A, ActualG: fj.B})
		}
		in := tensor.New(g.Node(units[0].Exit).OutShape)
		for i := range in.Data {
			in.Data[i] = float32(i%31)/31 - 0.5
		}
		inputs := []*tensor.Tensor{in, in, in}

		// wire runs one plan against a peer that logs every frame and
		// answers it, and returns the log and the bytes written.
		wire := func(run func(*Client) (*Report, error)) (string, int64) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			var log strings.Builder
			fakePeer(b, func(r *bufio.Reader, w *bufio.Writer) error {
				for {
					req, err := readRequest(r)
					if err != nil {
						return nil // the client closed
					}
					fmt.Fprintf(&log, "job %d bytes %d nodes", req.JobID, jobWireBytes(req.Pairs))
					for _, p := range req.Pairs {
						fmt.Fprintf(&log, " %d", p.Node)
					}
					log.WriteByte('\n')
					if err := writeInferReply(w, &inferReply{JobID: req.JobID}); err != nil {
						return err
					}
					if err := w.Flush(); err != nil {
						return err
					}
				}
			})
			conn := &countingConn{Conn: a}
			rep, err := run(NewClient(conn, m, netsim.WiFi, 1e-6))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for j, res := range rep.Results {
				if res.Cut != p.Cuts[j] {
					t.Errorf("%s job %d: JobResult.Cut = %d, want the unit index %d", name, j, res.Cut, p.Cuts[j])
				}
				if res.Cut == len(units)-1 {
					continue // fully local: no frame
				}
				exit := units[res.Cut].Exit
				if want := fmt.Sprintf("job %d bytes %d nodes %d\n", j, RequestWireBytes(g.Node(exit).OutShape), exit); !strings.Contains(log.String(), want) {
					t.Errorf("%s job %d: no frame %q on the wire:\n%s", name, j, want, log.String())
				}
			}
			return log.String(), conn.written.Load()
		}
		lineLog, lineBytes := wire(func(cl *Client) (*Report, error) { return cl.RunPlan(p, inputs) })
		t.Logf("%s: %d bytes\n%s", name, lineBytes, lineLog)
		genLog, genBytes := wire(func(cl *Client) (*Report, error) { return cl.RunGeneralPlan(gp, inputs) })
		if lineLog != genLog || lineBytes != genBytes {
			t.Errorf("%s: RunGeneralPlan wrote %d bytes:\n%sRunPlan wrote %d bytes:\n%s", name, genBytes, genLog, lineBytes, lineLog)
		}
	}
}

// wedgeWorker parks a single-worker server's only worker: one valid job
// whose reply nobody reads, so the worker blocks flushing it and every
// later job piles up behind the watermark. It returns once the wedge
// holds the worker — nothing queued, nothing parked, the one job owed —
// so no later job is served first while the wedge job waits out its
// group's hold. The job is cut at the tail unit where there is one: a
// conv span of its own would pass that test before the job parked. The
// returned release lets the reply through (and keeps draining until the
// test ends).
func wedgeWorker(t *testing.T, srv *Server, m *engine.Model, in *tensor.Tensor) (release func()) {
	t.Helper()
	req, _, err := srv.runPrefix(999, jobCut{unit: max(srv.tail, 1)}, in)
	if err != nil {
		t.Fatal(err)
	}
	wedge := dialFleet(t, srv)
	w := bufio.NewWriter(wedge)
	if err := writeJob(w, req.JobID, req.Pairs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fs := srv.scheduler()
	eventually(t, "the wedge job to hold the worker", func() bool {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		return fs.queued == 0 && len(fs.parked) == 0 && fs.owed.Load() == 1
	})
	return func() { go func() { _, _ = io.Copy(io.Discard, wedge) }() }
}

// TestRunnerFinishesShedSetJobsLocally: set × shed composes. Behind a
// wedged single-worker pool and watermark 2, set jobs past the
// watermark come back shed; the runner finishes each on the mobile
// engine with the class a local forward gives, and the ones that were
// queued are answered by the server once the wedge lifts.
func TestRunnerFinishesShedSetJobsLocally(t *testing.T) {
	m := branchedModel(t)
	srv := NewServer(m).WithWorkers(1).WithShedWatermark(2)
	t.Cleanup(srv.Close)
	release := wedgeWorker(t, srv, m, input(0))

	dial := func() (net.Conn, error) {
		cConn, sConn := net.Pipe()
		go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
		return cConn, nil
	}
	const n = 8
	r := NewRunner(dial, m, netsim.WiFi, 1e-6, RunOptions{JobTimeout: 10 * time.Second, Window: n})
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = input(i)
	}
	// All n are enqueued before the first await (Window = n), which is
	// on a job stuck behind the wedge: two wait for the worker, two
	// queue, the rest are shed. Then the wedge lifts.
	time.AfterFunc(200*time.Millisecond, release)
	rep, err := r.RunGeneralPlan(uniformGeneralPlan(n, twoTensorCut(t, m)), inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, rep, wantClasses(t, m, inputs))
	if rep.ShedJobs == 0 || rep.LocalFallbackJobs != rep.ShedJobs {
		t.Errorf("ShedJobs = %d, LocalFallbackJobs = %d: set jobs past the watermark must be shed and finished locally",
			rep.ShedJobs, rep.LocalFallbackJobs)
	}
	for _, res := range rep.Results {
		if !res.Shed && res.Cut != -1 {
			t.Errorf("job %d answered by the server with Cut %d, want -1 (a true set)", res.JobID, res.Cut)
		}
	}
}

// TestRunGeneralPlanRefusesReplanOptions: set × replan is an error that
// names both, never a silent no-op.
func TestRunGeneralPlanRefusesReplanOptions(t *testing.T) {
	m := branchedModel(t)
	gp := uniformGeneralPlan(1, twoTensorCut(t, m))
	for _, opts := range []RunOptions{{AdaptiveReplan: true}, {BackpressureThreshold: 0.5}} {
		_, err := NewRunner(nil, m, netsim.WiFi, 1, opts).RunGeneralPlan(gp, []*tensor.Tensor{input(0)})
		if err == nil || !strings.Contains(err.Error(), "RunGeneralPlan") || !strings.Contains(err.Error(), "re-plan") {
			t.Errorf("%+v: err = %v, want a refusal naming RunGeneralPlan and re-planning", opts, err)
		}
	}
}

// TestSetJobsRunSoloUnforwarded pins the job-kind table (pendingJob):
// on a batching server a set job is not coalesced and on a forwarding
// stage it is not handed off (its whole suffix runs there) — while the
// same client's line cuts batch and forward as ever — and on a
// quantized model it ships int8 like a line cut.
func TestSetJobsRunSoloUnforwarded(t *testing.T) {
	m := branchedModel(t)
	const n = 4
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = input(i)
	}
	want := wantClasses(t, m, inputs)
	gp := uniformGeneralPlan(n, twoTensorCut(t, m))

	t.Run("coalesce", func(t *testing.T) {
		o := NewObs(obs.NewTracer(0), obs.NewMetrics())
		srv := NewServer(m).WithWorkers(2).WithBatching(50*time.Millisecond, 8).WithObs(o)
		t.Cleanup(srv.Close)
		rep, err := NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6).RunGeneralPlan(gp, inputs)
		if err != nil {
			t.Fatal(err)
		}
		checkClasses(t, rep, want)
		if got := o.BatchSize.Count(); got != 0 {
			t.Errorf("%d batch groups executed for set jobs, want 0: sets never enter the coalescer", got)
		}
	})
	t.Run("forward", func(t *testing.T) {
		srv, o := startMiddle(t, m, startTerminal(t, m), 2, nil)
		cl, _ := attach(t, srv, m)
		rep, err := cl.RunGeneralPlan(gp, inputs)
		if err != nil {
			t.Fatal(err)
		}
		checkClasses(t, rep, want)
		if got := o.NextHopForwards.Value(); got != 0 {
			t.Errorf("%d handoffs for set jobs, want 0: a set runs its whole suffix on the stage it reaches", got)
		}
		// The same stage forwards a cut set that is a line cut.
		stem, _ := m.Graph().NodeByName("stem")
		res, err := cl.RunCutSet(n, []int{stem.ID}, inputs[0])
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != want[0] || res.Cut != 1 {
			t.Errorf("stem cut set: class %d cut %d, want %d/1", res.Class, res.Cut, want[0])
		}
		waitSettled(t, func() bool { return o.NextHopForwards.Value() == 1 })
	})
	t.Run("int8 wire", func(t *testing.T) {
		qm := quantized(t, branchedModel(t))
		o := NewObs(obs.NewTracer(0), obs.NewMetrics())
		srv := NewServer(qm).WithWorkers(2)
		t.Cleanup(srv.Close)
		cl := NewClient(dialFleet(t, srv), qm, netsim.WiFi, 1e-6).WithObs(o)
		stem, _ := qm.Graph().NodeByName("stem")
		if _, err := cl.RunCutSet(0, twoTensorCut(t, qm), inputs[0]); err != nil {
			t.Fatal(err)
		}
		setBytes := int64(twoTensorSetBytes(qm)) // two int8 pairs
		waitSettled(t, func() bool { return o.BytesUp.Value() == setBytes })
		// A cut set that is a unit exit is the line job: one int8 pair.
		if _, err := cl.RunCutSet(1, []int{stem.ID}, inputs[0]); err != nil {
			t.Fatal(err)
		}
		lineBytes := int64(QuantRequestWireBytes(stem.OutShape))
		waitSettled(t, func() bool { return o.BytesUp.Value() == setBytes+lineBytes })
	})
}

// TestQuantSetJobsMatchLocalForward: set × int8 is a working cell. On a
// quantized ResNet-18 — the smallest zoo model whose Alg. 3 plans ship
// true sets — every pair of a set goes up as int8 under its own node's
// mapping, and the server's class is the local quantized forward's for
// every input, each cut at a different node inside a residual block.
func TestQuantSetJobsMatchLocalForward(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("loads, quantizes and runs ResNet-18")
	}
	g := models.MustBuild("resnet18")
	m := quantized(t, engine.Load(g, 42))
	cl := startPair(t, m, netsim.WiFi)
	units := profile.LineView(g)
	exit := map[int]bool{}
	for _, u := range units {
		exit[u.Exit] = true
	}
	var inner []int // nodes that are no unit's exit: a cut there is a true set
	for _, id := range g.Topo() {
		if !exit[id] {
			inner = append(inner, id)
		}
	}
	const n = 4
	for i := 0; i < n; i++ {
		in := tensor.New(g.Node(units[0].Exit).OutShape)
		for j := range in.Data {
			in.Data[j] = float32((j+i*7)%29)/29 - 0.5
		}
		want := wantClasses(t, m, []*tensor.Tensor{in})[0]
		node := inner[(i+1)*len(inner)/(n+1)]
		res, err := cl.RunCutSet(i, []int{node}, in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut != -1 || res.Class != want {
			t.Errorf("input %d cut at %s: class %d cut %d, want %d/-1", i, g.Node(node).Layer.Name(), res.Class, res.Cut, want)
		}
	}
}
