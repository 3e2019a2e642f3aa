package runtime

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"dnnjps/internal/engine"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/tensor"
)

// startTerminal runs a plain server on a loopback TCP listener and
// returns its address. Four workers let its replies overtake each
// other.
func startTerminal(t *testing.T, m *engine.Model) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m).WithWorkers(4)
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() {
		lis.Close()
		srv.Close()
	})
	return lis.Addr().String()
}

// startMiddle builds a middle-stage server (handoff at nextCut toward
// addr) with its own metrics; configure may adjust the hop before the
// first connection.
func startMiddle(t *testing.T, m *engine.Model, addr string, nextCut int, configure func(*nextHop)) (*Server, *Obs) {
	t.Helper()
	o := NewObs(obs.NewTracer(0), obs.NewMetrics())
	srv, err := NewServer(m).WithWorkers(2).WithObs(o).WithNextHop(addr, nextCut)
	if err != nil {
		t.Fatal(err)
	}
	if configure != nil {
		configure(srv.next)
	}
	t.Cleanup(srv.Close)
	return srv, o
}

// attach connects a new client to srv over a pipe. The returned channel
// closes when the server side's HandleConn has returned.
func attach(t *testing.T, srv *Server, m *engine.Model) (*Client, <-chan struct{}) {
	t.Helper()
	cConn, sConn := net.Pipe()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		defer sConn.Close()
		_ = srv.HandleConn(sConn)
	}()
	t.Cleanup(func() {
		cConn.Close()
		<-handled
	})
	return NewClient(cConn, m, netsim.WiFi, 1e-6), handled
}

// startForwarder runs a middle-stage server (handoff at nextCut toward
// addr) and returns a client connected to it.
func startForwarder(t *testing.T, m *engine.Model, addr string, nextCut int) *Client {
	t.Helper()
	srv, _ := startMiddle(t, m, addr, nextCut, nil)
	cl, _ := attach(t, srv, m)
	return cl
}

// variedBoundaries returns n boundary tensors at the cut and the class
// a local forward gives each. input(i) lands every i in one class, which
// would hide a reply routed to the wrong job; a random offset per
// channel spreads these over several.
func variedBoundaries(t *testing.T, m *engine.Model, cut, n int, seed int64) ([]*tensor.Tensor, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	boundaries, want := make([]*tensor.Tensor, n), make([]int, n)
	seen := map[int]bool{}
	for i := range boundaries {
		in := input(0)
		for c := 0; c < 3; c++ {
			off := 2 * float32(rng.NormFloat64())
			for j := 0; j < 256; j++ {
				in.Data[c*256+j] = off + float32(rng.NormFloat64())
			}
		}
		boundaries[i], want[i] = boundaryFor(t, m, cut, in)
		seen[want[i]] = true
	}
	if n > 8 && len(seen) < 2 {
		t.Fatalf("all %d inputs classify alike; the test could not see a misrouted reply", n)
	}
	return boundaries, want
}

// checkClasses asserts one correct, computed (not shed) result per job.
func checkClasses(t *testing.T, rep *Report, want []int) {
	t.Helper()
	if len(rep.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(rep.Results), len(want))
	}
	for i, res := range rep.Results {
		if res.Shed || res.Class != want[i] {
			t.Errorf("job %d: class %d (shed %v), want %d", i, res.Class, res.Shed, want[i])
		}
	}
}

// scriptedHop is a downstream stage under the test's control: every
// connection it accepts runs the test's serve function.
type scriptedHop struct {
	lis net.Listener
	// answers computes the replies a real terminal stage would give.
	answers *Server

	mu       sync.Mutex
	accepted int
	conns    []net.Conn
	wg       sync.WaitGroup
}

// startScriptedHop listens on loopback and runs serve(i, conn) for the
// i-th accepted connection. Cleanup closes the listener and every
// connection, then waits for the serve calls to return.
func startScriptedHop(t *testing.T, m *engine.Model, serve func(h *scriptedHop, i int, conn net.Conn)) *scriptedHop {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &scriptedHop{lis: lis, answers: NewServer(m)}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			h.mu.Lock()
			i := h.accepted
			h.accepted++
			h.conns = append(h.conns, conn)
			h.mu.Unlock()
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				defer conn.Close()
				serve(h, i, conn)
			}()
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		h.mu.Lock()
		for _, c := range h.conns {
			c.Close()
		}
		h.mu.Unlock()
		h.wg.Wait()
	})
	return h
}

func (h *scriptedHop) addr() string { return h.lis.Addr().String() }

func (h *scriptedHop) connections() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.accepted
}

// answer writes the reply a terminal stage would give to req, a line
// job.
func (h *scriptedHop) answer(w *bufio.Writer, req *jobRequest) error {
	s := h.answers
	if err := s.check(pendingJob{req: req}); err != nil {
		return err
	}
	cut := s.cutOf(req.Pairs)
	if cut < 0 {
		return fmt.Errorf("job %d is not a line job", req.JobID)
	}
	out, err := s.runSpan(cut, len(s.units)-1, 1, req.Pairs[0].T)
	if err != nil {
		return err
	}
	if err := writeInferReply(w, &inferReply{JobID: req.JobID, Class: int32(engine.SoftmaxArgmaxBatch(out, 1, 0))}); err != nil {
		return err
	}
	return w.Flush()
}

// serveHonestly answers every request on conn until it fails.
func serveHonestly(h *scriptedHop, _ int, conn net.Conn) {
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	for {
		req, err := readRequest(r)
		if err != nil || h.answer(w, req) != nil {
			return
		}
	}
}

// A two-hop chain (client -> forwarder -> terminal) must produce the
// same class as single-machine inference from every cut: cuts before
// the handoff exercise mid-segment + forward, cuts at or past it run
// entirely on the forwarder.
func TestNextHopChainMatchesLocal(t *testing.T) {
	m := testModel(t)
	addr := startTerminal(t, m)
	const handoff = 3
	cl := startForwarder(t, m, addr, handoff)

	in := input(2)
	want, err := m.Forward(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	wantClass := engine.Argmax(want)
	for cut := 0; cut < cl.Units(); cut++ {
		res, err := cl.RunJob(cut, cut, in.Clone())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if res.Class != wantClass {
			t.Errorf("cut %d: class %d, want %d", cut, res.Class, wantClass)
		}
	}
}

// Forwarded work survives a next hop that dies mid-stream: the
// forwarder redials, and while the hop stays dead it finishes jobs
// locally (fallback) instead of failing the client.
func TestNextHopFallbackWhenHopDead(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	// A listener that is closed immediately: dials fail fast.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := lis.Addr().String()
	lis.Close()

	cl := startForwarder(t, m, deadAddr, 3)
	in := input(5)
	want, err := m.Forward(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	wantClass := engine.Argmax(want)
	res, err := cl.RunJob(0, 0, in.Clone())
	if err != nil {
		t.Fatalf("dead next hop must fall back locally, got %v", err)
	}
	if res.Class != wantClass {
		t.Errorf("fallback class %d, want %d", res.Class, wantClass)
	}
}

// serveShedding answers every request on conn with a shed reply.
func serveShedding(_ *scriptedHop, _ int, conn net.Conn) {
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	for {
		req, err := readRequest(r)
		if err != nil {
			return
		}
		shed := &inferReply{JobID: req.JobID, Class: -1, Flags: replyFlagShed | replyFlagBackpressure}
		if writeInferReply(w, shed) != nil || w.Flush() != nil {
			return
		}
	}
}

// A next hop that sheds every job: each one falls back on its own — the
// connection stays up — and the relayed reply never carries the shed
// flag, because the fallback computes a real class. Only the
// downstream's backpressure hint passes through.
func TestNextHopReplyNeverShed(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	hop := startScriptedHop(t, m, serveShedding)
	srv, o := startMiddle(t, m, hop.addr(), 2, nil)
	cl, _ := attach(t, srv, m)
	const n = 12
	boundaries, want := variedBoundaries(t, m, 0, n, 3)
	rep, err := cl.RunBoundaryJobs(0, boundaries)
	if err != nil {
		t.Fatal(err)
	}
	checkClasses(t, rep, want)
	if got := o.NextHopFallbacks.Value(); got != n {
		t.Errorf("fallbacks = %d, want %d", got, n)
	}
	if got := hop.connections(); got != 1 {
		t.Errorf("%d connections to the hop; a shed reply must not tear the connection down", got)
	}
	if rate, _, _ := cl.ServerPressure(); rate != 0 {
		t.Errorf("backpressure rate %g relayed from replies that were discarded", rate)
	}
}

func TestWithNextHopValidation(t *testing.T) {
	m := testModel(t)
	units := len(profileUnits(m))
	if _, err := NewServer(m).WithNextHop("", 1); err == nil {
		t.Error("empty address must error")
	}
	if _, err := NewServer(m).WithNextHop("127.0.0.1:1", -1); err == nil {
		t.Error("negative cut must error")
	}
	if _, err := NewServer(m).WithNextHop("127.0.0.1:1", units-1); err == nil {
		t.Error("handoff at the sink must error (nothing left downstream)")
	}
	if _, err := NewServer(m).WithNextHop("127.0.0.1:1", units); err == nil {
		t.Error("out-of-range cut must error")
	}
	if _, err := NewServer(m).WithNextHop("127.0.0.1:1", 0); err != nil {
		t.Errorf("cut 0 is a valid handoff: %v", err)
	}
}

// Batching silently bypassing the next hop would be a correctness bug;
// a forwarding stage must park no tail group even when batching flags
// are set, and its middle groups keep their width.
func TestNextHopDisablesCoalescer(t *testing.T) {
	m := testModel(t)
	srv, err := NewServer(m).WithBatching(time.Millisecond, 8).WithNextHop("127.0.0.1:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g := srv.gather(); g.at >= 0 || g.hold != 0 || g.max != midGroupWidth {
		t.Errorf("forwarding stage gathers %+v; it must park nothing, hold nothing, and group its middle segment by %d", g, midGroupWidth)
	}
	if g := NewServer(m).WithBatching(time.Millisecond, 8).gather(); g.at != 6 || g.max != 8 || g.hold != groupHold {
		t.Errorf("non-forwarding server with batching gathers %+v, want line jobs at the tail unit 6, 8 a group, held %v", g, groupHold)
	}
}

// burstBehindWedge sends boundaries, cut 0, to a one-worker stage as one
// burst while its worker is wedged, so that the whole burst is queued
// when the worker comes free and its middle segments run in groups
// whatever the timing. It returns the client's report.
func burstBehindWedge(t *testing.T, srv *Server, o *Obs, m *engine.Model, boundaries []*tensor.Tensor) *Report {
	t.Helper()
	release := wedgeWorker(t, srv, m, input(0))
	cl, _ := attach(t, srv, m)
	type outcome struct {
		rep *Report
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		rep, err := cl.RunBoundaryJobs(0, boundaries)
		ran <- outcome{rep, err}
	}()
	eventually(t, "the burst to queue", func() bool { return o.QueueDepth.Value() == float64(len(boundaries)) })
	release()
	out := <-ran
	if out.err != nil {
		t.Fatal(out.err)
	}
	if err := cl.Err(); err != nil {
		t.Errorf("client saw %v; a job answered twice shows up here", err)
	}
	return out.rep
}

// A burst at a stage whose hop refuses connections: the queued jobs run
// their middle segments in groups of four, and then every member falls
// back on its own — answered once, with the class a local forward
// gives, after its own failed handoff.
func TestNextHopGroupFallsBackMemberByMember(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := lis.Addr().String()
	lis.Close() // dials are refused
	srv, o := startMiddle(t, m, deadAddr, 3, nil)
	srv.WithWorkers(1) // for wedgeWorker
	const n = 2 * midGroupWidth
	boundaries, want := variedBoundaries(t, m, 0, n, 19)
	checkClasses(t, burstBehindWedge(t, srv, o, m, boundaries), want)
	if groups, batched := o.BatchSize.Count(), o.BatchedJobs.Value(); groups != 2 || batched != n {
		t.Errorf("%d middle passes of %d jobs in all, want 2 groups of %d", groups, batched, midGroupWidth)
	}
	if f, fb := o.NextHopForwards.Value(), o.NextHopFallbacks.Value(); f != 0 || fb != n {
		t.Errorf("forwards %d fallbacks %d, want 0 and %d", f, fb, n)
	}
	waitSettled(t, func() bool { return o.ServerJobs.Value() == n+1 }) // the wedge job's reply too
}

// The handoff tensors a middle group ships are the ones its members
// would ship alone, bit for bit: the hop records every frame it is sent,
// and each must equal one member's own (c, h] run at batch size 1.
func TestNextHopGroupedHandoffsMatchSolo(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	var (
		mu   sync.Mutex
		sent []*tensor.Tensor
	)
	hop := startScriptedHop(t, m, func(h *scriptedHop, _ int, conn net.Conn) {
		r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
		for {
			req, err := readRequest(r)
			if err != nil {
				return
			}
			mu.Lock()
			sent = append(sent, req.Pairs[0].T.Clone())
			mu.Unlock()
			if h.answer(w, req) != nil {
				return
			}
		}
	})
	srv, o := startMiddle(t, m, hop.addr(), 3, nil)
	srv.WithWorkers(1) // for wedgeWorker
	const n = 2 * midGroupWidth
	boundaries, want := variedBoundaries(t, m, 0, n, 23)
	checkClasses(t, burstBehindWedge(t, srv, o, m, boundaries), want)
	if got := o.BatchedJobs.Value(); got != n {
		t.Errorf("%d jobs ran in middle groups, want all %d", got, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != n {
		t.Fatalf("the hop was sent %d handoffs, want %d", len(sent), n)
	}
	used := make([]bool, n)
	for i, b := range boundaries {
		solo, err := srv.runSpan(0, 3, 1, b.Clone())
		if err != nil {
			t.Fatal(err)
		}
		match := -1
		for j, got := range sent {
			if !used[j] && bitsEqual(got, solo) {
				match = j
				break
			}
		}
		if match < 0 {
			t.Errorf("job %d: no handoff the hop saw is its solo handoff bit for bit", i)
			continue
		}
		used[match] = true
	}
}

// bitsEqual reports whether two tensors have the same shape and the same
// bits in every element.
func bitsEqual(a, b *tensor.Tensor) bool {
	if !a.Shape.Equal(b.Shape) {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// Two upstream connections that both number their jobs from 0 share the
// one downstream socket, and a four-worker terminal answers out of
// order: every reply must still reach the connection and job it belongs
// to. The slot index, not the client's JobID, is what crosses the hop.
func TestNextHopTwoConnectionsSameJobIDs(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	srv, o := startMiddle(t, m, startTerminal(t, m), 3, nil)
	const n = 40
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cl, _ := attach(t, srv, m)
		boundaries, want := variedBoundaries(t, m, 0, n, int64(10+c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := cl.RunBoundaryJobs(0, boundaries)
			if err != nil {
				t.Error(err)
				return
			}
			checkClasses(t, rep, want)
		}()
	}
	wg.Wait()
	if f, fb := o.NextHopForwards.Value(), o.NextHopFallbacks.Value(); f != 2*n || fb != 0 {
		t.Errorf("forwards %d fallbacks %d, want %d and 0", f, fb, 2*n)
	}
}

// The downstream dies with more forwards outstanding than the stage has
// workers: every one of them is answered, once, by the local fallback,
// none is shed, and the next job redials.
func TestNextHopKilledMidWindow(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	const k = 8 // > the middle stage's 2 workers
	hop := startScriptedHop(t, m, func(h *scriptedHop, i int, conn net.Conn) {
		if i > 0 {
			serveHonestly(h, i, conn)
			return
		}
		r := bufio.NewReader(conn)
		for j := 0; j < k; j++ {
			if _, err := readRequest(r); err != nil {
				return
			}
		}
		// Returning closes the connection with all k unanswered.
	})
	srv, o := startMiddle(t, m, hop.addr(), 3, nil)
	cl, _ := attach(t, srv, m)
	boundaries, want := variedBoundaries(t, m, 0, k, 5)
	rep, err := cl.RunBoundaryJobs(0, boundaries)
	if err != nil {
		t.Fatal(err)
	}
	checkClasses(t, rep, want)
	if f, fb := o.NextHopForwards.Value(), o.NextHopFallbacks.Value(); f != k || fb != k {
		t.Errorf("forwards %d fallbacks %d, want %d of each", f, fb, k)
	}

	_, wantNext := boundaryAt(t, m, 0, 1)
	res, err := cl.RunJob(k, 0, input(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != wantNext {
		t.Errorf("job after the redial: class %d, want %d", res.Class, wantNext)
	}
	if got := hop.connections(); got != 2 {
		t.Errorf("%d connections to the hop, want 2 (the job after the failure redials)", got)
	}
	waitSettled(t, func() bool { return o.ServerJobs.Value() == k+1 })
	if f, fb, shed := o.NextHopForwards.Value(), o.NextHopFallbacks.Value(), o.ShedJobs.Value(); f != k+1 || fb != k || shed != 0 {
		t.Errorf("forwards %d fallbacks %d shed %d, want %d, %d and 0", f, fb, shed, k+1, k)
	}
	if err := cl.Err(); err != nil {
		t.Errorf("client saw %v; a job answered twice shows up here", err)
	}
}

// A next hop that accepts and reads but never answers must not hold a
// window of jobs hostage: after the stall deadline the connection is
// torn down and every job is answered by the fallback, once.
func TestNextHopHungHopFallsBack(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	hop := startScriptedHop(t, m, func(_ *scriptedHop, _ int, conn net.Conn) {
		r := bufio.NewReader(conn)
		for {
			if _, err := readRequest(r); err != nil {
				return
			}
		}
	})
	srv, o := startMiddle(t, m, hop.addr(), 3, func(nh *nextHop) { nh.stall = 50 * time.Millisecond })
	cl, _ := attach(t, srv, m)
	const n = 6
	boundaries, want := variedBoundaries(t, m, 0, n, 7)
	rep, err := cl.RunBoundaryJobs(0, boundaries)
	if err != nil {
		t.Fatal(err)
	}
	checkClasses(t, rep, want)
	waitSettled(t, func() bool { return o.ServerJobs.Value() == n })
	if fb := o.NextHopFallbacks.Value(); fb != n {
		t.Errorf("fallbacks = %d, want %d", fb, n)
	}
	if got := o.NextHopInFlight.Value(); got != 0 {
		t.Errorf("in-flight gauge = %g after the teardown, want 0", got)
	}
	if err := cl.Err(); err != nil {
		t.Errorf("client saw %v; a job answered twice shows up here", err)
	}
}

// The stall deadline is about forwards in flight: a forwarding
// connection with nothing on it stays open past it.
func TestNextHopIdleConnectionOutlivesStall(t *testing.T) {
	m := testModel(t)
	hop := startScriptedHop(t, m, serveHonestly)
	const stall = 20 * time.Millisecond
	srv, _ := startMiddle(t, m, hop.addr(), 3, func(nh *nextHop) { nh.stall = stall })
	cl, _ := attach(t, srv, m)
	for i := 0; i < 2; i++ {
		if _, err := cl.RunJob(i, 0, input(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * stall)
	}
	if got := hop.connections(); got != 1 {
		t.Errorf("%d connections to the hop, want 1: idling past the stall deadline must not redial", got)
	}
}

// Close racing forwards in flight drains them: with every job parked at
// a hop that is holding its replies, Close blocks; once the hop
// answers, every job is replied to, Close returns, and the connection
// handler returns when its client goes away.
func TestNextHopCloseDrainsInFlight(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	const n = 16
	parked := make(chan *jobRequest, n)
	release := make(chan struct{})
	hop := startScriptedHop(t, m, func(h *scriptedHop, _ int, conn net.Conn) {
		r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
		var held []*jobRequest
		for len(held) < n {
			req, err := readRequest(r)
			if err != nil {
				return
			}
			held = append(held, req)
			parked <- req
		}
		<-release
		for i := len(held) - 1; i >= 0; i-- { // newest first: out of order
			if h.answer(w, held[i]) != nil {
				return
			}
		}
	})
	srv, o := startMiddle(t, m, hop.addr(), 3, nil)
	cl, handled := attach(t, srv, m)
	boundaries, want := variedBoundaries(t, m, 0, n, 9)
	type outcome struct {
		rep *Report
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		rep, err := cl.RunBoundaryJobs(0, boundaries)
		ran <- outcome{rep, err}
	}()
	for i := 0; i < n; i++ {
		<-parked
	}
	// All n are out at the hop, on 2 workers: none of them waited there.
	waitSettled(t, func() bool { return o.WorkersBusy.Value() == 0 })
	if got := o.NextHopInFlight.Value(); got != n {
		t.Errorf("in-flight gauge = %g with every reply held back, want %d", got, n)
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with forwards still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	out := <-ran
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkClasses(t, out.rep, want)
	<-closed
	if fb := o.NextHopFallbacks.Value(); fb != 0 {
		t.Errorf("fallbacks = %d; a draining Close must wait for the replies, not abandon them", fb)
	}
	cl.Close()
	<-handled
}

// A window smaller than the burst: the stage still completes, and the
// hop never sees more unanswered handoffs than the window allows.
func TestNextHopWindowBoundsInFlight(t *testing.T) {
	m := testModel(t)
	const (
		window = 4
		n      = 32
	)
	var mu sync.Mutex
	outstanding, peak := 0, 0
	hop := startScriptedHop(t, m, func(h *scriptedHop, _ int, conn net.Conn) {
		// The reader takes frames as fast as they come, so a forwarder
		// that overran its window would show; the replier dawdles to
		// give it the chance.
		reqs := make(chan *jobRequest, n)
		go func() {
			defer close(reqs)
			r := bufio.NewReader(conn)
			for {
				req, err := readRequest(r)
				if err != nil {
					return
				}
				mu.Lock()
				outstanding++
				peak = max(peak, outstanding)
				mu.Unlock()
				reqs <- req
			}
		}()
		w := bufio.NewWriter(conn)
		for req := range reqs {
			time.Sleep(200 * time.Microsecond)
			mu.Lock()
			outstanding--
			mu.Unlock()
			if h.answer(w, req) != nil {
				break
			}
		}
		conn.Close()
		for range reqs {
		}
	})
	srv, o := startMiddle(t, m, hop.addr(), 3, func(nh *nextHop) { nh.window = window })
	cl, _ := attach(t, srv, m)
	boundaries, want := variedBoundaries(t, m, 0, n, 11)
	rep, err := cl.RunBoundaryJobs(0, boundaries)
	if err != nil {
		t.Fatal(err)
	}
	checkClasses(t, rep, want)
	mu.Lock()
	defer mu.Unlock()
	if peak > window {
		t.Errorf("hop saw %d handoffs unanswered at once, window is %d", peak, window)
	}
	if f, fb := o.NextHopForwards.Value(), o.NextHopFallbacks.Value(); f != n || fb != 0 {
		t.Errorf("forwards %d fallbacks %d, want %d and 0", f, fb, n)
	}
	t.Logf("peak in flight %d of window %d", peak, window)
}

// A window of one, two workers, and a hop that sheds everything: both
// workers are soon waiting for the one slot while the reader holds a job
// to give back. The reader must not need a worker to take it — it frees
// the slot, leaves the job with the scheduler and reads on — or the
// three wedge. Every job is answered once, by a local fallback.
func TestNextHopWindowOfOneShedsAll(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	hop := startScriptedHop(t, m, serveShedding)
	srv, o := startMiddle(t, m, hop.addr(), 3, func(nh *nextHop) { nh.window = 1 })
	cl, _ := attach(t, srv, m)
	const n = 48
	boundaries, want := variedBoundaries(t, m, 0, n, 17)
	rep, err := cl.RunBoundaryJobs(0, boundaries)
	if err != nil {
		t.Fatal(err)
	}
	checkClasses(t, rep, want)
	if f, fb := o.NextHopForwards.Value(), o.NextHopFallbacks.Value(); f != n || fb != n {
		t.Errorf("forwards %d fallbacks %d, want %d of each", f, fb, n)
	}
	srv.Close() // a reply is counted after it is written: let the pool finish
	if got := o.ServerJobs.Value(); got != n {
		t.Errorf("%d replies written for %d jobs", got, n)
	}
}

// TestSchedulerStartsOnlyWorkers: on every stage the scheduler is its
// workers and nothing else — no dispatcher, no goroutine that keeps a
// hold.
func TestSchedulerStartsOnlyWorkers(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	const workers = 3
	forwarding, err := NewServer(m).WithNextHop("127.0.0.1:1", 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, srv := range map[string]*Server{
		"default":    NewServer(m),
		"batching":   NewServer(m).WithBatching(time.Hour, 8),
		"forwarding": forwarding,
	} {
		srv.WithWorkers(workers)
		before := goruntime.NumGoroutine()
		srv.scheduler()
		if got := goruntime.NumGoroutine() - before; got != workers {
			t.Errorf("%s stage: the scheduler started %d goroutines, want its %d workers", name, got, workers)
		}
		srv.Close()
	}
}

// profileUnits exposes the unit count for validation tests.
func profileUnits(m *engine.Model) []int {
	s := NewServer(m)
	out := make([]int, len(s.units))
	return out
}
