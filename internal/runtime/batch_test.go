package runtime

import (
	"net"
	"testing"
	"time"

	"dnnjps/internal/engine"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// Server-side cross-job batching: correctness of the tail groups under
// ragged flushes, reply demultiplexing when a group member is invalid,
// and the hold-expiry flush path.

// batchPair wires a client against a server with WithBatching(window,
// max) and returns the client plus the server's observability bundle for
// counter assertions. The server does not read window; a positive one
// stands in for groupHold here, so that a test's group forms whatever
// the timing.
func batchPair(t *testing.T, m *engine.Model, window time.Duration, max int) (*Client, *Obs) {
	t.Helper()
	cConn, sConn := net.Pipe()
	o := NewObs(obs.NewTracer(1<<12), obs.NewMetrics())
	srv := NewServer(m).WithWorkers(4).WithBatching(window, max).WithObs(o)
	if window > 0 {
		srv.hold = window
	}
	t.Cleanup(srv.Close)
	go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
	t.Cleanup(func() { cConn.Close() })
	return NewClient(cConn, m, netsim.WiFi, 1e-6), o
}

// boundaryAt computes the exact boundary activation job i would upload
// at the given cut, plus the class a pure local forward predicts.
func boundaryAt(t *testing.T, m *engine.Model, cut, i int) (*tensor.Tensor, int) {
	t.Helper()
	return boundaryFor(t, m, cut, input(i))
}

// boundaryFor is boundaryAt for an arbitrary input tensor.
func boundaryFor(t *testing.T, m *engine.Model, cut int, in *tensor.Tensor) (*tensor.Tensor, int) {
	t.Helper()
	units := profile.LineView(m.Graph())
	var prefix []int
	for _, u := range units[:cut+1] {
		prefix = append(prefix, u.Nodes...)
	}
	acts := map[int]*tensor.Tensor{}
	if err := m.Execute(acts, in.Clone(), prefix); err != nil {
		t.Fatal(err)
	}
	boundary := acts[units[cut].Exit].Clone()
	want, err := m.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	return boundary, engine.Argmax(want)
}

// A full plan through the tail groups: 16 same-cut jobs with a cap of 3
// force ragged groups (the final flush carries a partial batch), and
// every class must still match a pure local forward. The counters must
// account for every job exactly once.
func TestRunPlanWithBatchingCorrectness(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	cl, o := batchPair(t, m, 20*time.Millisecond, 3)

	const n = 16
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
		if r.CloudMs < 0 || r.CommMs < 0 {
			t.Errorf("job %d: negative attribution %+v", r.JobID, r)
		}
	}
	if got := o.BatchedJobs.Value() + o.SoloJobs.Value(); got != n {
		t.Errorf("batched %d + solo %d = %d jobs accounted, want %d",
			o.BatchedJobs.Value(), o.SoloJobs.Value(), got, n)
	}
	if o.BatchSize.Count() == 0 {
		t.Error("no batch groups observed")
	}
	if float64(n)/float64(o.BatchSize.Count()) != o.BatchSize.Sum()/float64(o.BatchSize.Count()) {
		t.Errorf("batch-size histogram sum %v over %d groups does not cover %d jobs",
			o.BatchSize.Sum(), o.BatchSize.Count(), n)
	}
}

// The hold-expiry flush: fewer jobs than the cap must still complete
// once the hold elapses, grouped into one batched execution at the tail.
func TestBatchWindowFlushesPartialGroup(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	cl, o := batchPair(t, m, 5*time.Millisecond, 64)

	const cut = 1
	res := [2]*JobResult{}
	calls := [2]*call{}
	wants := [2]int{}
	// Boundaries first: computing one between the two enqueues can
	// outlast the hold under the race detector.
	boundaries := [2]*tensor.Tensor{}
	for i := range res {
		boundaries[i], wants[i] = boundaryAt(t, m, cut, i*5)
	}
	for i := range res {
		res[i] = &JobResult{JobID: i}
		c, err := cl.enqueueInfer(res[i], cut, boundaries[i])
		if err != nil {
			t.Fatal(err)
		}
		calls[i] = c
	}
	for i, c := range calls {
		if err := cl.await(c); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res[i].Class != wants[i] {
			t.Errorf("job %d: class %d, want %d", i, res[i].Class, wants[i])
		}
	}
	if o.BatchedJobs.Value() != 2 {
		t.Errorf("batched jobs %d, want 2 (one group of two via hold expiry)", o.BatchedJobs.Value())
	}
}

// One invalid member must not poison its group: the valid jobs' replies
// demux to the right callers with the right classes, and only then does
// the connection fail with the invalid job's error. Whichever way the
// group formed at the tail unit, where the bad member arrives cut at the
// tail itself: held until WithBatching's cap of three closes it, or
// parked behind the default server's one wedged worker.
func TestBatchPartialFailureDemux(t *testing.T) {
	for _, c := range []struct {
		name string
		cut  int
		// pair returns the client and what lets the group go once all
		// three jobs are in.
		pair func(t *testing.T, m *engine.Model) (*Client, func())
	}{
		{"window", 6, func(t *testing.T, m *engine.Model) (*Client, func()) {
			cl, _ := batchPair(t, m, 50*time.Millisecond, 3)
			return cl, func() {}
		}},
		// The one worker is held in a reply write until the three are
		// queued; it then parks all of them before it picks the group.
		{"parked at the tail", 6, func(t *testing.T, m *engine.Model) (*Client, func()) {
			o := NewObs(nil, obs.NewMetrics())
			srv := NewServer(m).WithWorkers(1).WithObs(o)
			t.Cleanup(srv.Close)
			release := wedgeWorker(t, srv, m, input(0))
			eventually(t, "the wedge job's tail pass", func() bool { return o.SoloJobs.Value() == 1 })
			return NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6), func() {
				eventually(t, "all three admitted", func() bool { return o.QueueDepth.Value() == 3 })
				release()
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			goroutinesSettle(t)
			m := testModel(t)
			cl, letGo := c.pair(t, m)

			b0, want0 := boundaryAt(t, m, c.cut, 2)
			b1, want1 := boundaryAt(t, m, c.cut, 9)

			res0 := &JobResult{JobID: 0}
			c0, err := cl.enqueueInfer(res0, c.cut, b0)
			if err != nil {
				t.Fatal(err)
			}
			res1 := &JobResult{JobID: 1}
			c1, err := cl.enqueueInfer(res1, c.cut, b1)
			if err != nil {
				t.Fatal(err)
			}
			// Wrong boundary shape for every cut of this model: the server
			// detects it when the group is picked up, not at decode time, so
			// it parks with the two valid jobs in the group of their cut,
			// which still flushes on max size under WithBatching.
			resBad := &JobResult{JobID: 2}
			cBad, err := cl.enqueueInfer(resBad, c.cut, tensor.New(tensor.NewCHW(1, 2, 2)))
			if err != nil {
				t.Fatal(err)
			}
			letGo()

			if err := cl.await(c0); err != nil {
				t.Fatalf("valid job 0 must survive its group-mate's failure: %v", err)
			}
			if err := cl.await(c1); err != nil {
				t.Fatalf("valid job 1 must survive its group-mate's failure: %v", err)
			}
			if res0.Class != want0 || res1.Class != want1 {
				t.Errorf("classes %d/%d, want %d/%d: batch demux crossed replies",
					res0.Class, res1.Class, want0, want1)
			}
			if err := cl.await(cBad); err == nil {
				t.Fatal("invalid job must fail")
			}
			if cl.Err() == nil {
				t.Fatal("connection must record the invalid job's error")
			}
		})
	}
}

// A batch whose every member is invalid must fail the connection
// without wedging the coalescer or the pool.
func TestBatchAllInvalidFails(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	cl, _ := batchPair(t, m, 5*time.Millisecond, 2)

	bad := func(id int) *call {
		c, err := cl.enqueueInfer(&JobResult{JobID: id}, 1, tensor.New(tensor.NewVec(3)))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c0, c1 := bad(0), bad(1)
	if err := cl.await(c0); err == nil {
		t.Fatal("invalid job 0 must fail")
	}
	if err := cl.await(c1); err == nil {
		t.Fatal("invalid job 1 must fail")
	}
}

// WithBatching(0, …) and WithBatching(…, 1) leave the default stage:
// tail groups capped at the tile. One job on an idle server is then a
// group of one: its conv span, a park at the tail unit for at most the
// hold, its tail — each stage span once, the park inside the job's stage
// time, and QueueMs + CloudMs the whole of decode done to answer ready.
func TestBatchingDisabledConfigs(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	for _, cfg := range []struct {
		window time.Duration
		max    int
	}{{0, 16}, {time.Millisecond, 1}, {time.Millisecond, 0}} {
		cl, o := batchPair(t, m, cfg.window, cfg.max)
		in := input(1)
		want, _ := m.Forward(in.Clone())
		res, err := cl.RunJob(0, 1, in.Clone())
		if err != nil {
			t.Fatalf("window=%v max=%d: %v", cfg.window, cfg.max, err)
		}
		if res.Class != engine.Argmax(want) {
			t.Errorf("window=%v max=%d: class %d, want %d", cfg.window, cfg.max, res.Class, engine.Argmax(want))
		}
		if o.BatchSize.Count() != 1 || o.SoloJobs.Value() != 1 || o.BatchedJobs.Value() != 0 {
			t.Errorf("window=%v max=%d: %d groups, %d jobs alone, %d in company; want one group of one",
				cfg.window, cfg.max, o.BatchSize.Count(), o.SoloJobs.Value(), o.BatchedJobs.Value())
		}
		// The job was parked inside its own stage time — after the pickup
		// that ended its queue wait, before its answer was ready — and the
		// stamps still bracket the whole.
		spans := map[string]obs.Span{}
		for _, sp := range o.Tracer.Spans() {
			if sp.Track == TrackServer {
				if _, dup := spans[sp.Name]; dup {
					t.Errorf("window=%v max=%d: two %s spans for one job", cfg.window, cfg.max, sp.Name)
				}
				spans[sp.Name] = sp
			}
		}
		queue, park, stage := spans[SpanQueueWait], spans[SpanCoalesceWait], spans[SpanCloudCompute]
		if queue.EndNs() != stage.StartNs {
			t.Errorf("window=%v max=%d: queue wait ends at %d, stage time starts at %d", cfg.window, cfg.max, queue.EndNs(), stage.StartNs)
		}
		if park.StartNs < stage.StartNs || park.EndNs() > stage.EndNs() {
			t.Errorf("window=%v max=%d: parked %d..%d outside the job's stage time %d..%d",
				cfg.window, cfg.max, park.StartNs, park.EndNs(), stage.StartNs, stage.EndNs())
		}
		if got, want := res.QueueMs+res.CloudMs, float64(stage.EndNs()-queue.StartNs)/1e6; got < want-1e-3 || got > want+1e-3 {
			t.Errorf("window=%v max=%d: QueueMs + CloudMs = %.4f, decode done to answer ready is %.4f", cfg.window, cfg.max, got, want)
		}
	}
}
