package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dnnjps/internal/engine"
	"dnnjps/internal/tensor"
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
//	                 \--shed reply               (or on its own) -/
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
	reply func(inferReply) error
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
	start  time.Time // first worker pickup: queue time ends, stage time starts; zero until then
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

	work chan task
	co   *coalescer
	wg   sync.WaitGroup
	// owed counts jobs dispatched and not yet answered or failed. The
	// dispatcher waits on it before closing the pool: a job parked at the
	// next hop may yet need a worker for its fallback.
	owed sync.WaitGroup

	closeOnce sync.Once
	done      chan struct{}
}

func newFleetScheduler(s *Server) *fleetScheduler {
	fs := &fleetScheduler{
		s:       s,
		tenants: map[string]*tenantQueue{},
		work:    make(chan task, s.workers),
		done:    make(chan struct{}),
	}
	fs.cond = sync.NewCond(&fs.mu)
	// A forwarding stage never coalesces: the handoff is one job's frame,
	// and no traffic yet batches a middle segment. jpsserve rejects the
	// flag combination up front; this guard covers direct library users.
	if s.batchWindow > 0 && s.batchMax > 1 && s.next == nil {
		fs.co = newCoalescer(s.batchWindow, s.batchMax, func(jobs []pendingJob, flushed time.Time) {
			if o := s.obsv; o != nil {
				o.BatchSize.Observe(float64(len(jobs)))
				if len(jobs) > 1 {
					o.BatchedJobs.Add(int64(len(jobs)))
				} else {
					o.SoloJobs.Inc()
				}
			}
			fs.work <- task{jobs: jobs, flushed: flushed}
		})
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
// a forwarding stage it also takes back the jobs whose forward failed
// (see nexthop.go); anywhere else that channel is nil and never ready.
func (fs *fleetScheduler) worker() {
	defer fs.wg.Done()
	var fallbacks chan pendingJob
	if nh := fs.s.next; nh != nil {
		fallbacks = nh.fallbacks
	}
	o := fs.s.obsv
	for {
		var t task
		select {
		case next, ok := <-fs.work:
			if !ok {
				return
			}
			t = next
		case pj := <-fallbacks:
			t = task{jobs: []pendingJob{pj}}
		}
		if o != nil {
			o.WorkersBusy.Add(1)
		}
		fs.run(t)
		if o != nil {
			o.WorkersBusy.Add(-1)
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
	rep := inferReply{
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
// batching is on, everything else to the pool as a group of one. On
// shutdown it drains the queues first, then the coalescer, then waits
// until every dispatched job is answered (owed), then closes the pool
// (it and the coalescer are the only senders of tasks).
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
		fs.owed.Add(1)
		if pj.req != nil && fs.co != nil {
			fs.co.submit(pj)
		} else {
			fs.work <- task{jobs: []pendingJob{pj}}
		}
	}
	if fs.co != nil {
		fs.co.finish()
	}
	fs.owed.Wait()
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

// task is what the pool runs: jobs that enter the model at the same
// place and go through it as one pass. A job on its own is a group of
// one; only the coalescer forms larger ones, and flushed is when it let
// this one go (zero: the jobs never waited there).
type task struct {
	jobs    []pendingJob
	flushed time.Time
}

// run is the one stage task. It checks every member and runs the valid
// ones from their cut as one batch (advance): to the last unit, where
// each is classified and answered — or, on a forwarding stage and from
// a cut before the handoff unit, to that unit, where the job leaves for
// the next hop as what it has become, a job cut there. That makes the
// fallback this same task: a job the hop gave back, or never took,
// comes in again at the handoff unit with the tensor it left with, and
// keeps the pickup stamp of its first pass.
//
// Failure attribution: a member that fails its check fails only its own
// connection, and only after the group's valid replies have been
// written — the demux guarantee other tenants rely on. A failure of the
// shared pass fails the connection of every member that was in it.
func (fs *fleetScheduler) run(t task) {
	s, o := fs.s, fs.s.obsv
	start := time.Now()
	valid := t.jobs[:0] // filtered in place: the group is this task's alone
	var invalid []invalidJob
	for _, pj := range t.jobs {
		if pj.start.IsZero() {
			pj.start = start
			queued := pj.recv
			if !t.flushed.IsZero() {
				o.span(TrackServer, SpanCoalesceWait, int(pj.jobID()), pj.recv, t.flushed)
				queued = t.flushed
			}
			o.span(TrackServer, SpanQueueWait, int(pj.jobID()), queued, start)
		} else if o != nil {
			o.NextHopFallbacks.Inc()
		}
		if err := s.check(pj); err != nil {
			invalid = append(invalid, invalidJob{pj: pj, err: fmt.Errorf("job %d: %w", pj.jobID(), err)})
			continue
		}
		valid = append(valid, pj)
	}
	if len(valid) > 0 {
		out, to, err := s.advance(valid)
		switch {
		case err != nil:
			for _, pj := range valid {
				fs.fail(pj, err)
			}
		case to < len(s.units)-1:
			pj := valid[0] // a forwarding stage never coalesces
			pj.req.Cut, pj.req.Tensor = uint32(to), out
			if !s.next.handOff(pj) {
				fs.run(task{jobs: valid})
			}
		default:
			classes := engine.ArgmaxBatch(out, len(valid))
			end := time.Now()
			for i, pj := range valid {
				fs.answer(pj, int32(classes[i]), 0, end)
			}
		}
	}
	for _, iv := range invalid {
		fs.fail(iv.pj, iv.err)
	}
}

// invalidJob pairs a rejected group member with its own error.
type invalidJob struct {
	pj  pendingJob
	err error
}

// advance runs a checked group from its cut as one batch, as far as
// this stage takes it — unit to, whose exit activation it returns: the
// sink's, unless the group is cut before a forwarding stage's handoff
// unit. Outputs are bit-identical to running each member alone (an
// image's accumulation order in the engine does not depend on the batch
// size). A boundary set differs only in how its nodes are found.
func (s *Server) advance(jobs []pendingJob) (out *tensor.Tensor, to int, err error) {
	to = len(s.units) - 1
	if set := jobs[0].set; set != nil {
		out, err = s.resumeSet(set)
		return out, to, err
	}
	from := int(jobs[0].req.Cut) // one per group: members share the cut
	if nh := s.next; nh != nil && from < nh.cut {
		to = nh.cut
	}
	seed := jobs[0].req.Tensor // a batch of one is the tensor itself
	if len(jobs) > 1 {
		tensors := make([]*tensor.Tensor, len(jobs))
		for i, pj := range jobs {
			tensors[i] = pj.req.Tensor
		}
		if seed, err = engine.PackBatch(tensors); err != nil {
			return nil, to, err
		}
	}
	out, err = s.runSpan(from, to, len(jobs), seed)
	return out, to, err
}

// answer is the one reply epilogue: whichever way a job was computed —
// in a group or on its own, after a fallback, or by the next hop — its
// reply is built, stamped and written here, and the job released. The
// stamps mean the same on every path: QueueNs is decode done to worker
// pickup (the coalescing window included, so it shows up as queue time
// on the server, not as phantom communication delay in the client's
// CommMs), and CloudNs is worker pickup to answer ready, end — checking
// and packing, a middle segment and the wait for the next hop are this
// stage's work on the job, not link time. A group's members share the
// pickup and end, hence CloudNs and the cloud-compute interval. A write
// failure fails only the owning connection.
func (fs *fleetScheduler) answer(pj pendingJob, class int32, flags uint8, end time.Time) {
	o := fs.s.obsv
	rep := inferReply{
		JobID:   pj.jobID(),
		Class:   class,
		CloudNs: end.Sub(pj.start).Nanoseconds(),
		QueueNs: pj.start.Sub(pj.recv).Nanoseconds(),
		Flags:   flags | fs.hintFlags(),
	}
	o.span(TrackServer, SpanCloudCompute, int(rep.JobID), pj.start, end)
	if o != nil && rep.Flags&replyFlagBackpressure != 0 {
		o.BackpressureReplies.Inc()
	}
	if err := pj.conn.reply(rep); err != nil {
		pj.conn.fail(err)
	} else if o != nil {
		o.TenantJobs.With(pj.tenant).Inc()
	}
	pj.conn.pending.Done()
	fs.owed.Done()
}

// fail gives a dispatched job up: its connection fails with err (the
// first error sticks) and the job is released.
func (fs *fleetScheduler) fail(pj pendingJob, err error) {
	pj.conn.fail(err)
	pj.conn.pending.Done()
	fs.owed.Done()
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
