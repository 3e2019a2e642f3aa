package runtime

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// Fleet scheduler tests: cross-connection batching and reply routing,
// weighted fair queueing, admission control, and the graceful drain.
// The routing and isolation tests run real goroutine-per-client traffic
// and are the race-detector coverage for the server-wide scheduler.

// dialFleet wires one client connection against the shared server.
func dialFleet(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	cConn, sConn := net.Pipe()
	go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
	t.Cleanup(func() { cConn.Close() })
	return cConn
}

// TestFleetCrossConnectionBatching: eight clients on independent
// connections each submit ONE job with the SAME JobID at the same cut.
// Any batch group larger than one is therefore necessarily
// cross-connection, and a reply routed by JobID instead of by owning
// connection would misclassify some client. Run under -race this also
// exercises the admit/dispatch/coalesce paths from eight concurrent
// read loops. The hold is lengthened so that the groups form whatever
// the timing.
func TestFleetCrossConnectionBatching(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	o := NewObs(obs.NewTracer(0), obs.NewMetrics())
	srv := NewServer(m).WithWorkers(4).WithBatching(200*time.Millisecond, 8).WithObs(o)
	srv.hold = 200 * time.Millisecond
	t.Cleanup(srv.Close)

	const clients = 8
	const cut = 1
	boundaries := make([]*tensor.Tensor, clients)
	want := make([]int, clients)
	for i := range boundaries {
		boundaries[i], want[i] = boundaryAt(t, m, cut, i*5+1)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	got := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6)
			res := &JobResult{JobID: 0} // every client reuses job ID 0
			c, err := cl.enqueueInfer(res, cut, boundaries[i])
			if err != nil {
				errs <- err
				return
			}
			if err := cl.await(c); err != nil {
				errs <- err
				return
			}
			got[i] = res.Class
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("client %d: class %d, want %d — reply crossed connections", i, got[i], want[i])
		}
	}
	if o.BatchedJobs.Value() < 2 {
		t.Errorf("BatchedJobs = %d, want >= 2: one-job-per-connection traffic can only batch across connections",
			o.BatchedJobs.Value())
	}
}

// TestFleetPartialFailureIsolation: two clients share one batch group;
// the member with a garbage boundary must fail ONLY its own
// connection, after the valid member's reply has been written. Both
// arrive cut at the tail unit and park as they are popped, and the hold
// is long enough that the cap of two closes the group.
func TestFleetPartialFailureIsolation(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	srv := NewServer(m).WithWorkers(2).WithBatching(150*time.Millisecond, 2)
	srv.hold = 150 * time.Millisecond
	t.Cleanup(srv.Close)

	const cut = 6
	good, wantGood := boundaryAt(t, m, cut, 7)
	clA := NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6)
	clB := NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6)

	resA := &JobResult{JobID: 0}
	cA, err := clA.enqueueInfer(resA, cut, good)
	if err != nil {
		t.Fatal(err)
	}
	resB := &JobResult{JobID: 0}
	cB, err := clB.enqueueInfer(resB, cut, tensor.New(tensor.NewCHW(1, 2, 2)))
	if err != nil {
		t.Fatal(err)
	}

	if err := clA.await(cA); err != nil {
		t.Fatalf("valid member must survive another connection's bad job: %v", err)
	}
	if resA.Class != wantGood {
		t.Errorf("class %d, want %d", resA.Class, wantGood)
	}
	if err := clB.await(cB); err == nil {
		t.Fatal("invalid member must fail")
	}
	if clB.Err() == nil {
		t.Fatal("owning connection must record the error")
	}
	if clA.Err() != nil {
		t.Fatalf("uninvolved connection failed: %v", clA.Err())
	}
	// The scheduler must still be serving: a follow-up job on A works.
	b2, want2 := boundaryAt(t, m, cut, 11)
	res2 := &JobResult{JobID: 1}
	c2, err := clA.enqueueInfer(res2, cut, b2)
	if err != nil {
		t.Fatal(err)
	}
	if err := clA.await(c2); err != nil {
		t.Fatalf("scheduler dead after partial group failure: %v", err)
	}
	if res2.Class != want2 {
		t.Errorf("follow-up class %d, want %d", res2.Class, want2)
	}
}

// TestFleetWFQOrder drives the scheduler's queue discipline directly
// (no goroutines): with weights 2:1 and exact power-of-two strides,
// the pop order is fully deterministic and must interleave 2 gold per
// bronze, starting from the name tie-break at pass 0.
func TestFleetWFQOrder(t *testing.T) {
	srv := NewServer(testModel(t)).WithTenants(map[string]float64{"gold": 2})
	fs := &fleetScheduler{s: srv, tenants: map[string]*tenantQueue{}}
	fs.cond = sync.NewCond(&fs.mu)
	cc := &connCtx{}
	for i := 0; i < 8; i++ {
		fs.admit(pendingJob{conn: cc, tenant: "gold", req: &jobRequest{JobID: uint32(i)}})
	}
	for i := 0; i < 4; i++ {
		fs.admit(pendingJob{conn: cc, tenant: "bronze", req: &jobRequest{JobID: uint32(100 + i)}})
	}
	wantTenants := []string{
		"bronze", "gold", "gold",
		"bronze", "gold", "gold",
		"bronze", "gold", "gold",
		"bronze", "gold", "gold",
	}
	fs.mu.Lock()
	for i, want := range wantTenants {
		pj := fs.popLocked()
		if pj.tenant != want {
			t.Fatalf("pop %d: tenant %q, want %q", i, pj.tenant, want)
		}
	}
	if fs.queued != 0 {
		t.Errorf("queued = %d after full drain, want 0", fs.queued)
	}
	fs.mu.Unlock()
}

// TestFleetShedAdmission drives admission control directly: jobs past
// the watermark get an immediate shed reply, line job or set, and the backpressure hint fires at half the watermark.
func TestFleetShedAdmission(t *testing.T) {
	srv := NewServer(testModel(t)).WithShedWatermark(2)
	fs := &fleetScheduler{s: srv, tenants: map[string]*tenantQueue{}}
	fs.cond = sync.NewCond(&fs.mu)

	var mu sync.Mutex
	var replies []inferReply
	cc := &connCtx{
		reply: func(r inferReply) error {
			mu.Lock()
			replies = append(replies, r)
			mu.Unlock()
			return nil
		},
		fail: func(error) {},
	}
	admit := func(pj pendingJob) {
		pj.conn.pending.Add(1)
		if !fs.admit(pj) {
			t.Fatal("admit refused on an open scheduler")
		}
	}

	if fs.hintFlags() != 0 {
		t.Error("backpressure hint set on an empty queue")
	}
	admit(pendingJob{conn: cc, tenant: DefaultTenant, req: &jobRequest{JobID: 1}})
	if fs.hintFlags() != replyFlagBackpressure {
		t.Error("hint must fire at half the watermark (depth 1, watermark 2)")
	}
	admit(pendingJob{conn: cc, tenant: DefaultTenant, req: &jobRequest{JobID: 2}})
	if len(replies) != 0 {
		t.Fatalf("%d replies before the watermark, want 0", len(replies))
	}

	// Third infer job: at the watermark, must shed.
	admit(pendingJob{conn: cc, tenant: DefaultTenant, req: &jobRequest{JobID: 3}})
	if len(replies) != 1 {
		t.Fatalf("%d shed replies, want 1", len(replies))
	}
	rep := replies[0]
	if rep.JobID != 3 || rep.Class != -1 {
		t.Errorf("shed reply JobID=%d Class=%d, want 3/-1", rep.JobID, rep.Class)
	}
	if rep.Flags&replyFlagShed == 0 || rep.Flags&replyFlagBackpressure == 0 {
		t.Errorf("shed reply flags %08b, want shed|backpressure", rep.Flags)
	}

	// A set past the watermark is shed like a line job: the runner has a
	// local fallback for both.
	admit(pendingJob{conn: cc, tenant: DefaultTenant, req: &jobRequest{JobID: 4, Cut: -1}})
	if len(replies) != 2 || replies[1].JobID != 4 || replies[1].Flags&replyFlagShed == 0 {
		t.Fatalf("set job past the watermark: replies %+v, want a shed reply for job 4", replies)
	}
	if fs.queued != 2 {
		t.Errorf("queued = %d, want 2 (shed jobs never queue)", fs.queued)
	}
}

// TestServerCloseDrainsCoalescer: jobs sitting in a half-filled tail
// group behind a long hold must still execute and reply when the server
// is closed — the graceful-drain contract jpsserve's SIGTERM path relies
// on — and the drain must beat the hold by a wide margin.
func TestServerCloseDrainsCoalescer(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	srv := NewServer(m).WithWorkers(2).WithBatching(10*time.Second, 8)
	srv.hold = 10 * time.Second

	const cut = 1
	b0, want0 := boundaryAt(t, m, cut, 2)
	b1, want1 := boundaryAt(t, m, cut, 9)
	cl := NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6)
	res0 := &JobResult{JobID: 0}
	c0, err := cl.enqueueInfer(res0, cut, b0)
	if err != nil {
		t.Fatal(err)
	}
	res1 := &JobResult{JobID: 1}
	c1, err := cl.enqueueInfer(res1, cut, b1)
	if err != nil {
		t.Fatal(err)
	}
	// Let both jobs reach their tail group, then drain.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v: drained by the hold's expiry, not by the drain path", d)
	}
	if err := cl.await(c0); err != nil {
		t.Fatalf("job 0 lost in drain: %v", err)
	}
	if err := cl.await(c1); err != nil {
		t.Fatalf("job 1 lost in drain: %v", err)
	}
	if res0.Class != want0 || res1.Class != want1 {
		t.Errorf("classes %d/%d, want %d/%d", res0.Class, res1.Class, want0, want1)
	}
	// A closed server refuses new connections' work.
	cl2 := NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6)
	if _, err := cl2.RunJob(0, cut, input(1)); err == nil {
		t.Fatal("job on a closed server must fail")
	}
}

// TestFleetShedAndHintReplan is the end-to-end load-shedding story: a
// wedged worker pool (a client that does not read its reply) forces
// the queue past the watermark, so the runner's jobs come back shed
// with backpressure flags; the runner must finish every shed job on
// the mobile engine, trigger the hint-driven re-plan, and still
// classify everything correctly once the wedge lifts.
func TestFleetShedAndHintReplan(t *testing.T) {
	goroutinesSettle(t)
	m := pipeModel(t)
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 8, SetupMs: 0}
	srv := NewServer(m).WithWorkers(1).WithShedWatermark(2)
	t.Cleanup(srv.Close)

	const cut = 3
	time.AfterFunc(400*time.Millisecond, wedgeWorker(t, srv, m, pipeInput(0)))

	dial := func() (net.Conn, error) {
		cConn, sConn := net.Pipe()
		go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
		return cConn, nil
	}
	curve := profile.BuildCurve(m.Graph(), profile.RaspberryPi4(), profile.CloudGPU(), ch, tensor.Float32)
	r := NewRunner(dial, m, ch, 1e-6, RunOptions{
		JobTimeout:            10 * time.Second,
		BackoffBase:           time.Millisecond,
		BackoffMax:            2 * time.Millisecond,
		Window:                6,
		BackpressureThreshold: 0.2,
	}).WithCurve(curve)

	const n = 18
	plan := uniformPlan(n, cut)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = pipeInput(i)
	}
	rep, err := r.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, rep, wantClasses(t, m, inputs))
	if rep.ShedJobs == 0 {
		t.Error("a wedged single-worker pool behind watermark 2 must shed jobs")
	}
	if rep.LocalFallbackJobs < rep.ShedJobs {
		t.Errorf("LocalFallbackJobs = %d < ShedJobs = %d: shed jobs must finish locally",
			rep.LocalFallbackJobs, rep.ShedJobs)
	}
	if rep.HintReplans == 0 {
		t.Error("backpressure-flagged replies above the threshold must trigger a hint re-plan")
	}
	for _, res := range rep.Results {
		if res == nil {
			t.Fatal("missing result")
		}
	}
}

// TestHelloCodec pins the handshake frame: round trip, length
// validation on both sides, and CRC rejection of corrupted frames.
func TestHelloCodec(t *testing.T) {
	for _, tenant := range []string{"a", "tenant-7", strings.Repeat("x", maxTenantLen)} {
		var buf bytes.Buffer
		if err := writeHello(&buf, tenant); err != nil {
			t.Fatalf("writeHello(%q): %v", tenant, err)
		}
		if buf.Bytes()[0] != msgHello {
			t.Fatalf("frame type %d, want %d", buf.Bytes()[0], msgHello)
		}
		got, err := readHelloBody(bytes.NewReader(buf.Bytes()[1:]))
		if err != nil {
			t.Fatalf("readHelloBody(%q): %v", tenant, err)
		}
		if got != tenant {
			t.Errorf("round trip %q -> %q", tenant, got)
		}
	}
	if err := writeHello(io.Discard, ""); err == nil {
		t.Error("empty tenant must be rejected")
	}
	if err := writeHello(io.Discard, strings.Repeat("x", maxTenantLen+1)); err == nil {
		t.Error("oversized tenant must be rejected")
	}
	var buf bytes.Buffer
	if err := writeHello(&buf, "tenant-7"); err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), buf.Bytes()[1:]...)
	body[2] ^= 0x40 // flip a tenant byte under the CRC
	if _, err := readHelloBody(bytes.NewReader(body)); err == nil {
		t.Error("corrupted hello must fail the checksum")
	}
}

// TestClientSendsTenant: a tenant-configured client's traffic lands in
// its tenant's counters, and legacy (tenant-less) clients land in the
// default tenant.
func TestClientSendsTenant(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	o := NewObs(obs.NewTracer(0), obs.NewMetrics())
	srv := NewServer(m).WithWorkers(2).WithObs(o)
	t.Cleanup(srv.Close)

	cl := NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6).WithTenant("phone-a")
	if _, err := cl.RunJob(0, 1, input(3)); err != nil {
		t.Fatal(err)
	}
	legacy := NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6)
	if _, err := legacy.RunJob(0, 1, input(4)); err != nil {
		t.Fatal(err)
	}
	// The tenant counter lands after the reply is written, so the
	// client can observe its result a beat before the increment.
	var jobs map[string]int64
	for deadline := time.Now().Add(2 * time.Second); ; {
		jobs = o.TenantJobs.Values()
		if jobs["phone-a"] == 1 && jobs[DefaultTenant] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant jobs = %v, want phone-a:1 %s:1", jobs, DefaultTenant)
		}
		time.Sleep(time.Millisecond)
	}
	rx := o.TenantRxBytes.Values()
	if rx["phone-a"] <= 0 {
		t.Errorf("tenant phone-a rx bytes = %d, want > 0", rx["phone-a"])
	}
}
