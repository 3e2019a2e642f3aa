package runtime

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/netsim"
	"dnnjps/internal/nn"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// pipeModel is a chain CNN sized so that a mid-network cut gives a
// ~16 KB boundary tensor and a cloud suffix of a few hundred
// microseconds — communication dominates under the shaped channel
// below, the regime where Prop. 4.1 is sharp.
func pipeModel(t testing.TB) *engine.Model {
	t.Helper()
	g := dag.New("pipetest")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(3, 32, 32)})
	c1 := g.Add(&nn.Conv2D{LayerName: "conv1", OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, in)
	r1 := g.Add(nn.NewActivation("relu1", nn.ReLU), c1)
	p1 := g.Add(nn.NewMaxPool2D("pool1", 2, 2, 0), r1)
	c2 := g.Add(&nn.Conv2D{LayerName: "conv2", OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, p1)
	r2 := g.Add(nn.NewActivation("relu2", nn.ReLU), c2)
	gp := g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, r2)
	fc := g.Add(&nn.Dense{LayerName: "fc", Out: 10, Bias: true}, gp)
	g.Add(nn.NewSoftmax("softmax"), fc)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return engine.Load(g, 77)
}

// pipeInput builds an input matching pipeModel's 3x32x32 stem.
func pipeInput(i int) *tensor.Tensor {
	in := tensor.New(tensor.NewCHW(3, 32, 32))
	for j := range in.Data {
		in.Data[j] = float32((j+i*11)%17)/17 - 0.4
	}
	return in
}

// uniformPlan builds a plan that cuts every job at the same unit, in
// job-ID order — the identical-DNN setting where the closed form of
// Prop. 4.1 is exact.
func uniformPlan(n, cut int) *core.Plan {
	p := &core.Plan{Cuts: make([]int, n), Sequence: make([]flowshop.Job, n)}
	for i := range p.Cuts {
		p.Cuts[i] = cut
		p.Sequence[i] = flowshop.Job{ID: i}
	}
	return p
}

// closureCase is one input of prop41Closure: a model, a plan of n jobs
// that all ship the same frame, and that frame's size.
type closureCase struct {
	model     *engine.Model
	wireBytes int
	run       func(cl *Client, n int) (*Report, error)
}

// lineClosure cuts pipeModel after pool1: one 16x16x16 boundary tensor.
func lineClosure(t *testing.T) closureCase {
	m := pipeModel(t)
	const cut = 3
	units := profile.LineView(m.Graph())
	return closureCase{
		model:     m,
		wireBytes: RequestWireBytes(m.Graph().Node(units[cut].Exit).OutShape),
		run: func(cl *Client, n int) (*Report, error) {
			inputs := make([]*tensor.Tensor, n)
			for i := range inputs {
				inputs[i] = pipeInput(i)
			}
			return cl.RunPlan(uniformPlan(n, cut), inputs)
		},
	}
}

// setClosure cuts branchedModel at {a2, b1}: a two-tensor boundary set,
// 2 x 8x16x16, the same 16 KB per job in one two-pair job frame.
func setClosure(t *testing.T) closureCase {
	m := branchedModel(t)
	return closureCase{
		model:     m,
		wireBytes: twoTensorSetBytes(m),
		run: func(cl *Client, n int) (*Report, error) {
			inputs := make([]*tensor.Tensor, n)
			for i := range inputs {
				inputs[i] = input(i)
			}
			return cl.RunGeneralPlan(uniformGeneralPlan(n, twoTensorCut(t, m)), inputs)
		},
	}
}

// TestRunPlanMatchesProp41 is the pipelined client's acceptance test:
// on a bandwidth-shaped link, the measured makespan of a pipelined plan
// must converge to the closed form f(x_1) + max(Σf, Σg) + g(x_n)
// within 15% — for a line plan and for a cut-set plan alike, since both
// ride the same writer. A synchronous client cannot pass this: it holds
// the uplink across each request→reply round trip, so its makespan
// exceeds the bound by the summed cloud compute + reply RTTs (one per
// job, ~25% here).
func TestRunPlanMatchesProp41(t *testing.T) {
	t.Run("line", func(t *testing.T) { prop41Closure(t, lineClosure(t), func(s *Server) {}) })
	t.Run("cut-set", func(t *testing.T) { prop41Closure(t, setClosure(t), func(s *Server) {}) })
}

// TestRunPlanMatchesProp41Batched re-runs the closure on a server with
// WithBatching's cap. On this plan jobs reach the server one uplink
// transmission (~16 ms) apart, so every tail group's hold expires solo —
// the server must degrade to job-at-a-time dispatch and cost at most one
// extra hold on the tail, far inside the 15% tolerance.
func TestRunPlanMatchesProp41Batched(t *testing.T) {
	prop41Closure(t, lineClosure(t), func(s *Server) { s.WithBatching(2*time.Millisecond, 16) })
}

func prop41Closure(t *testing.T, c closureCase, configure func(*Server)) {
	t.Helper()
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the per-job timings this test asserts on")
	}
	// 8 Mb/s (1 MB/s), no setup latency: each 16 KB frame costs one
	// ~16 ms pacing sleep. One large sleep per job keeps the timer
	// overshoot (~1 ms/sleep on coarse-timer kernels) far inside the
	// tolerance, and the uplink dominates mobile (~0.4 ms) and cloud
	// (~0.4 ms) compute, the bottleneck regime the closed form
	// describes.
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 8, SetupMs: 0}
	const (
		scale = 1.0
		n     = 10
	)
	// The run times real pacing sleeps on a host it shares with the rest
	// of `go test ./...`, and what a busy host adds is only ever extra
	// time: the best of up to three runs is the one to hold to the bound.
	var failure string
	for attempt := 1; attempt <= 3; attempt++ {
		cConn, sConn := net.Pipe()
		srv := NewServer(c.model).WithWorkers(4)
		configure(srv)
		go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
		rep, err := c.run(NewClient(cConn, c.model, ch, scale), n)
		cConn.Close()
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != n {
			t.Fatalf("got %d results, want %d", len(rep.Results), n)
		}

		// Prop. 4.1 with measured f (this machine's real compute) and the
		// channel-model g (what the shaper enforces).
		g := scale * ch.TxMs(c.wireBytes)
		var sumF float64
		for _, r := range rep.Results {
			sumF += r.MobileMs
		}
		f1 := rep.Results[0].MobileMs // sequence order = ID order here
		predicted := f1 + max(sumF-f1, float64(n-1)*g) + g
		ratio := rep.MakespanMs / predicted
		t.Logf("run %d: measured %.2f ms, Prop 4.1 closed form %.2f ms (ratio %.3f; per-job g %.2f ms)",
			attempt, rep.MakespanMs, predicted, ratio, g)
		switch {
		case ratio > 1.15:
			failure = fmt.Sprintf("measured makespan %.2f ms exceeds closed form %.2f ms by %.0f%% (> 15%%): pipeline is not full duplex",
				rep.MakespanMs, predicted, (ratio-1)*100)
		case ratio < 0.7:
			failure = fmt.Sprintf("measured makespan %.2f ms implausibly below closed form %.2f ms — shaper not engaged?",
				rep.MakespanMs, predicted)
		default:
			return
		}
	}
	t.Error(failure)
}

// TestRunPlanResultsSortedByJobID pins the report determinism contract:
// completion order varies with the pool, Results order must not.
func TestRunPlanResultsSortedByJobID(t *testing.T) {
	m := pipeModel(t)
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	srv := NewServer(m).WithWorkers(4)
	t.Cleanup(srv.Close)
	go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
	cl := NewClient(cConn, m, netsim.WiFi, 1e-6)

	const n = 16
	plan := uniformPlan(n, 2)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = pipeInput(i)
	}
	rep, err := cl.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Results {
		if r.JobID != i {
			t.Fatalf("Results[%d].JobID = %d; report must be sorted by JobID", i, r.JobID)
		}
	}
}

// enqueueInfer enqueues a line cut's boundary tensor: the one-pair
// form of enqueue.
func (c *Client) enqueueInfer(res *JobResult, cut int, t *tensor.Tensor) (*call, error) {
	return c.enqueue(res, c.lineJob(res.JobID, cut, t))
}

// fakePeer runs f against the server side of a pipe with buffered IO.
func fakePeer(conn net.Conn, f func(r *bufio.Reader, w *bufio.Writer) error) chan error {
	errCh := make(chan error, 1)
	go func() {
		r := bufio.NewReader(conn)
		w := bufio.NewWriter(conn)
		err := f(r, w)
		if err == nil {
			err = w.Flush()
		}
		errCh <- err
	}()
	return errCh
}

// readRequest consumes one job frame (type byte + body). Its Cut is
// not derived: that takes the model's units (lineProgram.cutOf).
func readRequest(r *bufio.Reader) (*jobRequest, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if typ != msgJob {
		return nil, errUnexpected(typ)
	}
	return readJobBody(r)
}

type errUnexpected byte

func (e errUnexpected) Error() string { return "unexpected frame type" }

func smallBoundary() *tensor.Tensor {
	tt := tensor.New(tensor.NewVec(8))
	for i := range tt.Data {
		tt.Data[i] = float32(i)
	}
	return tt
}

// The demultiplexer must tolerate replies arriving in any order: job
// i's reply may overtake job j's when the server pool finishes them
// out of order.
func TestDemuxOutOfOrderReplies(t *testing.T) {
	m := testModel(t)
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	cl := NewClient(cConn, m, netsim.WiFi, 1e-6)

	peer := fakePeer(sConn, func(r *bufio.Reader, w *bufio.Writer) error {
		var reqs []*jobRequest
		for i := 0; i < 2; i++ {
			req, err := readRequest(r)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		for i := len(reqs) - 1; i >= 0; i-- { // reverse order
			rep := &inferReply{JobID: reqs[i].JobID, Class: int32(100 + reqs[i].JobID), CloudNs: 1e6}
			if err := writeInferReply(w, rep); err != nil {
				return err
			}
		}
		return nil
	})

	res1 := &JobResult{JobID: 1}
	res2 := &JobResult{JobID: 2}
	c1, err := cl.enqueueInfer(res1, 0, smallBoundary())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cl.enqueueInfer(res2, 0, smallBoundary())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.await(c1); err != nil {
		t.Fatal(err)
	}
	if err := cl.await(c2); err != nil {
		t.Fatal(err)
	}
	if res1.Class != 101 || res2.Class != 102 {
		t.Errorf("classes %d/%d, want 101/102: demux crossed replies", res1.Class, res2.Class)
	}
	if res1.CloudMs != 1 || res2.CloudMs != 1 {
		t.Errorf("cloud times %.2f/%.2f, want 1/1", res1.CloudMs, res2.CloudMs)
	}
	if err := <-peer; err != nil {
		t.Fatal(err)
	}
}

// A reply for a job that was never sent is a protocol violation: the
// client must fail cleanly, not hang or panic.
func TestDemuxReplyForUnknownJob(t *testing.T) {
	m := testModel(t)
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	cl := NewClient(cConn, m, netsim.WiFi, 1e-6)

	fakePeer(sConn, func(r *bufio.Reader, w *bufio.Writer) error {
		if _, err := readRequest(r); err != nil {
			return err
		}
		return writeInferReply(w, &inferReply{JobID: 99, Class: 1})
	})

	res := &JobResult{JobID: 1}
	c1, err := cl.enqueueInfer(res, 0, smallBoundary())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.await(c1); err == nil {
		t.Fatal("reply for unknown job must fail the in-flight call")
	}
	if cl.Err() == nil {
		t.Fatal("client must record the protocol violation")
	}
}

// A duplicate reply (same JobID twice) must also fail the client: the
// second delivery matches no in-flight job.
func TestDemuxDuplicateReply(t *testing.T) {
	m := testModel(t)
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	cl := NewClient(cConn, m, netsim.WiFi, 1e-6)

	fakePeer(sConn, func(r *bufio.Reader, w *bufio.Writer) error {
		req, err := readRequest(r)
		if err != nil {
			return err
		}
		rep := &inferReply{JobID: req.JobID, Class: 3}
		if err := writeInferReply(w, rep); err != nil {
			return err
		}
		return writeInferReply(w, rep) // duplicate
	})

	res := &JobResult{JobID: 5}
	c1, err := cl.enqueueInfer(res, 0, smallBoundary())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.await(c1); err != nil {
		t.Fatalf("first reply must deliver: %v", err)
	}
	// The failure is signaled, not polled: fail() closes cl.failed
	// exactly once, so waiting on it is race-free and prompt.
	select {
	case <-cl.failed:
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate reply never surfaced as a client error")
	}
	if cl.Err() == nil {
		t.Fatal("failed channel closed without a recorded error")
	}
	// Future calls fail fast with the recorded error.
	if _, err := cl.enqueueInfer(&JobResult{JobID: 6}, 0, smallBoundary()); err == nil {
		t.Fatal("enqueue after protocol violation must fail")
	}
}

// Two in-flight jobs may not share a JobID — the demultiplexer could
// not tell their replies apart.
func TestDuplicateInFlightJobIDRejected(t *testing.T) {
	m := testModel(t)
	cConn, _ := net.Pipe()
	defer cConn.Close()
	cl := NewClient(cConn, m, netsim.WiFi, 1e-6)
	if _, err := cl.enqueueInfer(&JobResult{JobID: 7}, 0, smallBoundary()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.enqueueInfer(&JobResult{JobID: 7}, 0, smallBoundary()); err == nil {
		t.Fatal("duplicate in-flight JobID must be rejected")
	}
}

// A transport error mid-plan must abort the run promptly — the compute
// worker may not drain the remaining prefixes first (the seed runtime
// surfaced upload errors only after computing every job).
func TestRunPlanAbortsPromptlyOnError(t *testing.T) {
	m := pipeModel(t)
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	sConn.Close() // peer gone: the very first upload fails

	// A channel slow enough that draining all uploads would take >2s.
	ch := netsim.Channel{Name: "slow", UplinkMbps: 1, SetupMs: 5}
	cl := NewClient(cConn, m, ch, 0.1)

	const n = 200
	plan := uniformPlan(n, 3)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = pipeInput(i)
	}
	start := time.Now()
	_, err := cl.RunPlan(plan, inputs)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("RunPlan against a dead peer must error")
	}
	if elapsed > time.Second {
		t.Errorf("RunPlan took %v to surface the transport error; must abort promptly", elapsed)
	}
}

// Out-of-order completion against the real concurrent server: many
// jobs, several workers, every class must still match a local forward.
func TestRunPlanConcurrentServerCorrectness(t *testing.T) {
	m := testModel(t)
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	srv := NewServer(m).WithWorkers(4)
	t.Cleanup(srv.Close)
	go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
	cl := NewClient(cConn, m, netsim.WiFi, 1e-6)

	const n = 24
	plan := uniformPlan(n, 1)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = input(i * 3)
	}
	rep, err := cl.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		want, _ := m.Forward(inputs[r.JobID].Clone())
		if r.Class != engine.Argmax(want) {
			t.Errorf("job %d: class %d, want %d", r.JobID, r.Class, engine.Argmax(want))
		}
	}
}
