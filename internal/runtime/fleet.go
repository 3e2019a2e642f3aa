package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Fleet scheduler: the server-wide admission controller, weighted fair
// queue, and worker pool behind every connection.
//
// The paper's model is single-user — one mobile, one cloud — but a
// real cloud arbitrates its suffix-compute capacity across a fleet.
// Earlier revisions gave each connection its own worker pool and its
// own coalescer, so achieved batch sizes stayed near 1 under fleet
// traffic (jobs from different clients could never share a group) and
// an overloaded server had no lever beyond letting queue times grow.
// The fleetScheduler lifts all of that to server scope:
//
//	read loops --admit--> tenant WFQ --dispatch--> coalescer --> pool
//	                 \--shed reply                     (or solo) -/
//
//   - Admission: every decoded job passes through admit(). Past the
//     shed watermark, infer jobs are refused with an immediate shed
//     reply (Class -1, replyFlagShed) instead of joining a queue that
//     can no longer drain — bounding p99 instead of collapsing it.
//   - Fairness: admitted jobs queue per tenant and leave in stride-WFQ
//     order, so one chatty tenant cannot starve the rest; weights come
//     from Server.WithTenants.
//   - Batching: the dispatcher feeds infer jobs from ALL connections
//     into one coalescer (see coalesce.go), so fleet traffic fills
//     batch groups that per-connection coalescers never could.
//   - Backpressure: once depth crosses half the shed watermark, every
//     reply carries replyFlagBackpressure; the client aggregates the
//     hints (Client.ServerPressure) and the runner re-plans cuts
//     toward local compute before the cloud saturates.

// DefaultTenant is the tenant legacy clients land in: any connection
// that never sends a hello frame shares this queue at weight 1.
const DefaultTenant = "default"

// wfqStride is the numerator of the stride-scheduling pass increment:
// a tenant's pass advances by wfqStride/weight per dispatched job, so
// relative service rates converge to the weight ratio.
const wfqStride = float64(1 << 16)

// connCtx is the per-connection context a job carries through the
// scheduler so replies and failures route back to the owning
// connection — JobIDs alone cannot route, every client numbers its own
// jobs from zero.
type connCtx struct {
	// tenant is the connection's current tenant ID. Written only by the
	// connection's read loop (on hello); jobs snapshot it at admission.
	tenant string
	// pending counts admitted jobs not yet replied or failed;
	// HandleConn waits on it before returning.
	pending sync.WaitGroup
	// reply writes one frame under the connection's write mutex.
	reply func(*inferReply) error
	// fail sticks the connection's first error and closes its
	// transport. Idempotent.
	fail func(error)
}

// pendingJob is one decoded request in flight through the scheduler.
// Exactly one of req/set is non-nil: a line frame (msgInfer, one tensor
// at a unit exit) or a set frame (msgInferSet, an Alg. 3 boundary set).
// Both kinds are shed — the runner finishes either locally. Only line
// frames are:
//   - coalesced: a group shares one suffix pass, and two sets' node
//     lists need not match;
//   - forwarded: the handoff (-next-cut) is a unit index and a set names
//     no unit, so a set's whole suffix runs on the stage it reaches;
//   - quantized on the wire: the client calibrates per unit exit.
//
// A boundary set that is a unit exit never arrives as a set: the client
// sends the line frame it is (runPrefix).
type pendingJob struct {
	conn   *connCtx
	tenant string // snapshot of conn.tenant at admission
	req    *inferRequest
	set    *inferSetRequest
	recv   time.Time // decode completion; queue attribution starts here
}

// jobID is the client's ID for the job, whichever frame carried it.
func (pj pendingJob) jobID() uint32 {
	if pj.req != nil {
		return pj.req.JobID
	}
	return pj.set.JobID
}

// tenantQueue is one tenant's FIFO plus its stride-scheduling state.
type tenantQueue struct {
	name   string
	weight float64
	pass   float64
	q      []pendingJob
}

// fleetScheduler is the server-wide scheduler. One instance serves
// every connection; it is created lazily on the first HandleConn and
// torn down by Server.Close.
type fleetScheduler struct {
	s *Server

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	queued  int
	closed  bool

	// depth mirrors queued for lock-free reads on the reply hot path
	// (backpressure flag stamping).
	depth atomic.Int64

	work chan func()
	co   *coalescer
	wg   sync.WaitGroup

	closeOnce sync.Once
	done      chan struct{}
}

func newFleetScheduler(s *Server) *fleetScheduler {
	fs := &fleetScheduler{
		s:       s,
		tenants: map[string]*tenantQueue{},
		work:    make(chan func(), s.workers),
		done:    make(chan struct{}),
	}
	fs.cond = sync.NewCond(&fs.mu)
	// A forwarding stage never coalesces: inferBatch runs the full
	// suffix locally, which would silently bypass the next hop. jpsserve
	// rejects the flag combination up front; this guard covers direct
	// library users.
	if s.batchWindow > 0 && s.batchMax > 1 && s.next == nil {
		fs.co = newCoalescer(s.batchWindow, s.batchMax,
			func(task func()) { fs.work <- task },
			fs.runBatch)
	}
	if s.next != nil {
		s.next.start(fs)
	}
	for i := 0; i < s.workers; i++ {
		fs.wg.Add(1)
		go fs.worker()
	}
	fs.wg.Add(1)
	go fs.dispatchLoop()
	return fs
}

// worker is one pool goroutine: it runs tasks until the pool closes. On
// a forwarding stage it also takes the jobs whose forward failed (see
// nexthop.go).
func (fs *fleetScheduler) worker() {
	defer fs.wg.Done()
	nh := fs.s.next
	if nh == nil {
		for task := range fs.work {
			task()
		}
		return
	}
	for {
		select {
		case task, ok := <-fs.work:
			if !ok {
				return
			}
			task()
		case job := <-nh.fallbacks:
			o := fs.s.obsv
			if o != nil {
				o.WorkersBusy.Add(1)
			}
			fs.fallback(job)
			if o != nil {
				o.WorkersBusy.Add(-1)
			}
		}
	}
}

// shutdown drains the scheduler gracefully: no new admissions, every
// already-admitted job still executes and gets its reply (including
// partially filled coalescer groups), then the pool exits. Safe to
// call from multiple goroutines; all callers block until the drain
// completes.
func (fs *fleetScheduler) shutdown() {
	fs.closeOnce.Do(func() {
		fs.mu.Lock()
		fs.closed = true
		fs.cond.Broadcast()
		fs.mu.Unlock()
		fs.wg.Wait()
		close(fs.done)
	})
	<-fs.done
}

// admit is called from a connection's read loop with one decoded job
// whose conn.pending has been incremented. It returns false only when
// the server is shut down (the job is then the caller's to release).
// Past the shed watermark, jobs of either frame kind are answered
// immediately with a shed reply instead of queueing — the client's
// runner finishes them on the mobile engine.
func (fs *fleetScheduler) admit(pj pendingJob) bool {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return false
	}
	if wm := fs.s.shedWatermark; wm > 0 && fs.queued >= wm {
		fs.mu.Unlock()
		fs.shed(pj)
		return true
	}
	tq := fs.tenants[pj.tenant]
	if tq == nil {
		tq = &tenantQueue{name: pj.tenant, weight: fs.s.tenantWeight(pj.tenant)}
		fs.tenants[pj.tenant] = tq
	}
	if len(tq.q) == 0 {
		// A newly active tenant joins at the head of the pass field
		// rather than its stale value, so a long-idle tenant cannot
		// burst ahead of everyone on "saved up" credit.
		if min, ok := fs.minActivePassLocked(); ok && tq.pass < min {
			tq.pass = min
		}
	}
	tq.q = append(tq.q, pj)
	fs.queued++
	fs.depth.Store(int64(fs.queued))
	if o := fs.s.obsv; o != nil {
		o.QueueDepth.Set(float64(fs.queued))
	}
	fs.cond.Signal()
	fs.mu.Unlock()
	return true
}

// shed answers one refused job inline from the read-loop goroutine:
// Class -1, shed + backpressure flags, no compute.
func (fs *fleetScheduler) shed(pj pendingJob) {
	defer pj.conn.pending.Done()
	if o := fs.s.obsv; o != nil {
		o.ShedJobs.Inc()
		o.TenantJobs.With(pj.tenant).Inc()
	}
	rep := &inferReply{
		JobID: pj.jobID(),
		Class: -1,
		Flags: replyFlagShed | replyFlagBackpressure,
	}
	if err := pj.conn.reply(rep); err != nil {
		pj.conn.fail(err)
	}
}

// minActivePassLocked returns the smallest pass among tenants with
// queued jobs.
func (fs *fleetScheduler) minActivePassLocked() (float64, bool) {
	var min float64
	found := false
	for _, tq := range fs.tenants {
		if len(tq.q) > 0 && (!found || tq.pass < min) {
			min = tq.pass
			found = true
		}
	}
	return min, found
}

// popLocked removes and returns the next job in WFQ order: the head of
// the non-empty tenant queue with the smallest pass (name-ordered tie
// break for determinism), advancing that tenant's pass by
// wfqStride/weight.
func (fs *fleetScheduler) popLocked() pendingJob {
	var best *tenantQueue
	for _, tq := range fs.tenants {
		if len(tq.q) == 0 {
			continue
		}
		if best == nil || tq.pass < best.pass || (tq.pass == best.pass && tq.name < best.name) {
			best = tq
		}
	}
	pj := best.q[0]
	best.q[0] = pendingJob{} // drop references for GC
	best.q = best.q[1:]
	if len(best.q) == 0 {
		best.q = nil // release the drained backing array
	}
	best.pass += wfqStride / best.weight
	fs.queued--
	fs.depth.Store(int64(fs.queued))
	if o := fs.s.obsv; o != nil {
		o.QueueDepth.Set(float64(fs.queued))
	}
	return pj
}

// dispatchLoop is the single consumer of the tenant queues: it pops in
// WFQ order and routes each job — line jobs to the coalescer when
// batching is on, everything else to the pool as a solo task. On
// shutdown it drains the queues first, then the coalescer, then waits
// until every forwarded job is answered (one parked at the next hop may
// yet need the pool for its fallback), then closes the pool (it and the
// coalescer are the only senders of tasks).
func (fs *fleetScheduler) dispatchLoop() {
	defer fs.wg.Done()
	for {
		fs.mu.Lock()
		for fs.queued == 0 && !fs.closed {
			fs.cond.Wait()
		}
		if fs.queued == 0 {
			fs.mu.Unlock()
			break
		}
		pj := fs.popLocked()
		fs.mu.Unlock()
		if pj.req != nil && fs.co != nil {
			fs.co.submit(pj)
		} else {
			fs.work <- fs.soloTask(pj)
		}
	}
	if fs.co != nil {
		fs.co.finish()
	}
	if nh := fs.s.next; nh != nil {
		nh.owed.Wait()
	}
	close(fs.work)
}

// hintFlags returns the backpressure bit when queue depth has crossed
// half the shed watermark — the early-warning band where clients
// should start shifting cuts local before admission control has to
// drop anything.
func (fs *fleetScheduler) hintFlags() uint8 {
	wm := fs.s.shedWatermark
	if wm <= 0 {
		return 0
	}
	hint := wm / 2
	if hint < 1 {
		hint = 1
	}
	if fs.depth.Load() >= int64(hint) {
		return replyFlagBackpressure
	}
	return 0
}

// finishReply stamps the admission-control flags on a computed reply
// and writes it to the owning connection. A write failure fails only
// that connection. Does not release pending — the caller owns that.
func (fs *fleetScheduler) finishReply(pj pendingJob, rep *inferReply) {
	rep.Flags |= fs.hintFlags()
	o := fs.s.obsv
	if o != nil && rep.Flags&replyFlagBackpressure != 0 {
		o.BackpressureReplies.Inc()
	}
	if err := pj.conn.reply(rep); err != nil {
		pj.conn.fail(err)
		return
	}
	if o != nil {
		o.TenantJobs.With(pj.tenant).Inc()
	}
}

// soloTask wraps one unbatched job into a pool task: run the
// inference, stamp flags, reply to the owning connection. Errors fail
// only that connection. On a forwarding stage, line jobs cut before the
// handoff boundary take the forwarding task instead.
func (fs *fleetScheduler) soloTask(pj pendingJob) func() {
	s := fs.s
	if s.next != nil && pj.req != nil && pj.req.Cut < uint32(s.next.cut) {
		return fs.forwardTask(pj)
	}
	return func() {
		defer pj.conn.pending.Done()
		rep, err := s.runJob(int(pj.jobID()), pj.recv, func() (*inferReply, error) {
			if pj.req != nil {
				return s.infer(pj.req)
			}
			return s.inferSet(pj.set)
		})
		if err != nil {
			pj.conn.fail(err)
			return
		}
		fs.finishReply(pj, rep)
	}
}

// runBatch executes one flushed group on a pool worker: coalesce-wait
// and queue-wait spans per member, one batched suffix execution, then
// per-member replies routed to each owning connection. QueueNs covers
// recv -> worker start, so the coalescing window shows up as queue
// time on the server — not as phantom communication delay in the
// client's CommMs attribution. CloudNs reports the group's shared
// compute wall time to every member.
//
// Failure attribution: a member with a bad boundary shape fails only
// its own connection, and only after the group's valid replies have
// been written — the batch demux guarantee other tenants rely on. An
// engine-level failure (the shared suffix pass itself) fails every
// member's connection.
func (fs *fleetScheduler) runBatch(g *batchGroup, flushed time.Time) {
	s := fs.s
	start := time.Now()
	o := s.obsv
	if o != nil {
		for _, pj := range g.jobs {
			o.span(TrackServer, SpanCoalesceWait, int(pj.req.JobID), pj.recv, flushed)
			o.span(TrackServer, SpanQueueWait, int(pj.req.JobID), flushed, start)
		}
		o.WorkersBusy.Add(1)
		o.BatchSize.Observe(float64(len(g.jobs)))
		if len(g.jobs) > 1 {
			o.BatchedJobs.Add(int64(len(g.jobs)))
		} else {
			o.SoloJobs.Inc()
		}
	}
	valid, invalid, reps, execErr := s.inferBatch(g.jobs, start)
	end := time.Now()
	if o != nil {
		o.WorkersBusy.Add(-1)
	}
	if execErr != nil {
		for _, pj := range g.jobs {
			pj.conn.fail(execErr)
			pj.conn.pending.Done()
		}
		return
	}
	for i, pj := range valid {
		o.span(TrackServer, SpanCloudCompute, int(pj.req.JobID), start, end)
		fs.finishReply(pj, reps[i])
		pj.conn.pending.Done()
	}
	for _, iv := range invalid {
		iv.pj.conn.fail(iv.err)
		iv.pj.conn.pending.Done()
	}
}

// invalidJob pairs a rejected group member with its own error.
type invalidJob struct {
	pj  pendingJob
	err error
}

// tenantWeight resolves a tenant's WFQ weight from the server config;
// unconfigured tenants (the default tenant included) get weight 1.
func (s *Server) tenantWeight(name string) float64 {
	if w, ok := s.tenantWeights[name]; ok && w > 0 {
		return w
	}
	return 1
}

var errServerClosed = fmt.Errorf("runtime: server closed")
