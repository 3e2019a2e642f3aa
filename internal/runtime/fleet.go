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
//	read loops --admit--> tenant WFQ --pop--> pool <--park/pickup--> groups
//	                 \--shed reply           next hop --gives back--^
//
//   - Admission: every decoded job passes through admit(). Past the
//     shed watermark, infer jobs are refused with an immediate shed
//     reply (Class -1, replyFlagShed) instead of joining a queue that
//     can no longer drain — bounding p99 instead of collapsing it.
//   - Fairness: admitted jobs queue per tenant and leave in stride-WFQ
//     order, so one chatty tenant cannot starve the rest; weights come
//     from Server.WithTenants.
//   - Batching: jobs from ALL connections share groups, and every
//     stage's workers form them the same way — nothing is dispatched
//     ahead of a worker; one that falls free decides then what it runs
//     (pick, takeLocked). Where and how long jobs gather is the stage's
//     gather rule: a worker takes the WFQ head and runs its conv span
//     alone, parks it at the model's tail unit, and the fully connected
//     tail of every job parked by then runs as one pass — one stream of
//     the tail's weights for the group, not one per job. queue-wait is
//     decode -> pop, coalesce-wait is park -> the group's pickup. A
//     forwarding stage parks nothing: a worker takes queued jobs of one
//     cut off the WFQ together and runs their middle segment as one pass.
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

// pendingJob is one decoded job in flight through the scheduler. Every
// job is one frame kind, a boundary of (node, tensor) pairs; what sets
// a line job (req.Cut ≥ 0: one pair at a unit exit) apart from a true
// set (req.Cut = -1) is what may happen to it. Both are shed — the
// runner finishes either locally — and both may ship int8. Only a line
// job is:
//   - grouped — parked for the group of its cut at the tail unit, or
//     taken off the queue with jobs of its cut for a forwarding stage's
//     middle segment: a group shares one pass from one unit exit, and
//     two sets' node lists need not match (nor does a set name a unit to
//     park at);
//   - forwarded: the handoff (-next-cut) is a unit index and a set names
//     no unit, so a set's whole suffix runs on the stage it reaches.
type pendingJob struct {
	conn   *connCtx
	tenant string // snapshot of conn.tenant at admission
	req    *jobRequest
	recv   time.Time // decode completion; queue attribution starts here
	start  time.Time // first worker pickup: queue time ends, stage time starts; zero until then
	parked time.Time // joined the group of its cut (see takeLocked); zero: never parked
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
	// parked holds the groups that wait for a free worker, oldest first
	// (so in the order they fall due), and returned the jobs the next hop
	// gave back, each to be finished here as a group of one.
	parked   []task
	returned []pendingJob
	// timer wakes the pool when the oldest unripe group falls due. One per
	// scheduler, made by the first worker that has a hold to wait out.
	timer *time.Timer

	// depth mirrors queued for lock-free reads on the reply hot path
	// (backpressure flag stamping).
	depth atomic.Int64

	wg sync.WaitGroup
	// owed counts jobs popped and not yet answered or failed: running,
	// parked, or in flight at the next hop, where one may yet need a
	// worker for its fallback. The pool outlives them all.
	owed atomic.Int64

	closeOnce sync.Once
	done      chan struct{}
}

func newFleetScheduler(s *Server) *fleetScheduler {
	fs := &fleetScheduler{
		s:       s,
		tenants: map[string]*tenantQueue{},
		done:    make(chan struct{}),
	}
	fs.cond = sync.NewCond(&fs.mu)
	if s.next != nil {
		s.next.start(fs)
	}
	for i := 0; i < s.workers; i++ {
		fs.wg.Add(1)
		go fs.pull()
	}
	return fs
}

// pull is the one pool goroutine, on every stage. Nothing is dispatched
// ahead of it: a worker that falls free decides then, by the pick rule
// (takeLocked), what it runs next, so a group holds whatever has
// gathered by the moment a worker can run it and not what had when a
// dispatcher got to it. With nothing ripe it sleeps until a job is
// admitted or given back, or the oldest group falls due. It exits once
// the scheduler is closed, nothing is queued and nothing is owed.
func (fs *fleetScheduler) pull() {
	defer fs.wg.Done()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for {
		t, wait, ok := fs.takeLocked(time.Now())
		switch {
		case ok:
			fs.mu.Unlock()
			fs.occupy(t)
			fs.mu.Lock()
			continue
		case fs.closed && fs.owed.Load() == 0:
			return
		case wait > 0 && fs.timer == nil:
			fs.timer = time.AfterFunc(wait, fs.wake)
		case wait > 0:
			fs.timer.Reset(wait)
		}
		fs.cond.Wait()
	}
}

// wake has every waiting worker pick again.
func (fs *fleetScheduler) wake() {
	fs.mu.Lock()
	fs.cond.Broadcast()
	fs.mu.Unlock()
}

// occupy runs one task inside the pool's busy bracket.
func (fs *fleetScheduler) occupy(t task) {
	fs.s.obsv.WorkersBusy.Add(1)
	fs.run(t)
	fs.s.obsv.WorkersBusy.Add(-1)
}

// shutdown drains the scheduler gracefully: no new admissions, every
// already-admitted job still executes and gets its reply (parked groups
// included, whose hold ends here), then the pool exits. Safe to call
// from multiple goroutines; all callers block until the drain completes.
func (fs *fleetScheduler) shutdown() {
	fs.closeOnce.Do(func() {
		fs.mu.Lock()
		fs.closed = true
		fs.cond.Broadcast()
		fs.mu.Unlock()
		fs.wg.Wait()
		if fs.timer != nil { // the pool is gone: nobody arms it again
			fs.timer.Stop()
		}
		close(fs.done)
	})
	<-fs.done
}

// admit is called from a connection's read loop with one decoded job
// whose conn.pending has been incremented. It returns false only when
// the server is shut down (the job is then the caller's to release).
// Past the shed watermark, line jobs and sets alike are answered
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
	fs.s.obsv.QueueDepth.Set(float64(fs.queued))
	fs.cond.Signal()
	fs.mu.Unlock()
	return true
}

// shed answers one refused job inline from the read-loop goroutine:
// Class -1, shed + backpressure flags, no compute.
func (fs *fleetScheduler) shed(pj pendingJob) {
	defer pj.conn.pending.Done()
	fs.s.obsv.ShedJobs.Inc()
	fs.s.obsv.TenantJobs.With(pj.tenant).Inc()
	rep := inferReply{
		JobID: pj.req.JobID,
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

// headLocked returns the tenant queue whose head leaves next in WFQ
// order: the non-empty one with the smallest pass (name-ordered tie
// break for determinism), nil when nothing is queued.
func (fs *fleetScheduler) headLocked() *tenantQueue {
	var best *tenantQueue
	for _, tq := range fs.tenants {
		if len(tq.q) == 0 {
			continue
		}
		if best == nil || tq.pass < best.pass || (tq.pass == best.pass && tq.name < best.name) {
			best = tq
		}
	}
	return best
}

// popLocked removes and returns the next job in WFQ order, the head of
// headLocked's queue, advancing that tenant's pass by wfqStride/weight.
func (fs *fleetScheduler) popLocked() pendingJob {
	best := fs.headLocked()
	pj := best.q[0]
	best.q[0] = pendingJob{} // drop references for GC
	best.q = best.q[1:]
	if len(best.q) == 0 {
		best.q = nil // release the drained backing array
	}
	best.pass += wfqStride / best.weight
	fs.queued--
	fs.depth.Store(int64(fs.queued))
	fs.s.obsv.QueueDepth.Set(float64(fs.queued))
	return pj
}

// tailGroupMax closes a tail group: the GEMM tile is 16 columns wide, a
// group is one column per member, and the per-job cost of the dense
// tail is flat from there on (AlexNet fc6-fc8: 23-26 ms a pass at any n
// from 2 to 16, as for one job). Not a knob: it is the tile.
const tailGroupMax = 16

// groupHold is how long a tail group that is not full waits for
// companions once nothing is queued: enough for a burst's jobs to share
// one stream of the tail's weights, little beside a job's link time —
// the most a lone job on an idle server waits at its tail unit. 2 ms,
// what every windowed caller passed; not a knob.
const groupHold = 2 * time.Millisecond

// midGroupWidth is how many queued jobs a forwarding stage runs through
// its middle segment as one pass. The segment it is sized for,
// MobileNet-v2's (bneck15/add, head/gap], is 1×1 convolutions on a 7×7
// plane: 49 GEMM columns, which leave the last 16-wide strip of the tile
// one column full (77 % over the four strips); four planes, 196 columns,
// fill thirteen strips to 94 %. Every width that runs keeps arena
// buffers of its own, so it is one constant, not a knob: where the
// queued jobs share a cut, groups are of 1 or of 4.
const midGroupWidth = 4

// gather is where and for how long a stage gathers line jobs: a job cut
// at or past unit at joins the group of its cut (at < 0: none does), a
// group closes at max members, and one that is not full is held until
// hold after it opened — when its first member parked, not when that
// member was received. On a forwarding stage nothing parks and nothing
// is held; max is the width of its middle groups, taken off the queue
// as they are (takeLocked).
type gather struct {
	at, max int
	hold    time.Duration
}

// gather is the stage's rule. A forwarding stage parks nothing — a job
// leaves it at the handoff, before any tail — and groups its middle
// segment by midGroupWidth jobs (on a float32 model: the int8 kernels are
// single-image). A terminal stage gathers a job at the model's tail unit
// (none on a quantized model or one with no dense head), after its conv
// span has run alone, in a group of at most one tile (or WithBatching's
// max) held for groupHold.
func (s *Server) gather() gather {
	if s.next != nil {
		if s.model.IsQuantized() {
			return gather{at: -1, max: 1}
		}
		return gather{at: -1, max: midGroupWidth}
	}
	max := tailGroupMax
	if s.batchMax > 1 {
		max = s.batchMax
	}
	return gather{at: s.tail, max: max, hold: s.hold}
}

// pick is the rule a free worker goes by, as a function of what waits:
// how many jobs are queued, the parked groups, oldest first, the size
// that closes a group, and the time. It returns the index of the group
// to run, or -1 for the head of the WFQ — and, when none is queued
// either, for nothing yet: wait is then how long until the oldest group
// falls due (0: nothing is parked). Queued jobs first — each still has
// to join its group, after a conv span of its own where the stage has
// one, and a group only gets fuller meanwhile — so a group runs when the
// queue is empty and its hold is over, oldest first and whole; a group
// that is full has nothing to wait for and goes ahead of the queue,
// which is what bounds how long a job is put off: one group's worth of
// companions. An idle server thus adds a scheduling hop to a job and at
// most one hold.
func pick(queued int, parked []task, max int, now time.Time) (group int, wait time.Duration) {
	for i, g := range parked {
		if len(g.jobs) >= max {
			return i, 0
		}
	}
	if queued > 0 || len(parked) == 0 {
		return -1, 0
	}
	if wait = parked[0].due.Sub(now); wait > 0 {
		return -1, wait
	}
	return 0, 0
}

// takeLocked applies the pick rule for a worker and removes what it
// picked: a job the next hop gave back, ahead of everything — it has
// been through the queue once — else a parked group, or the WFQ head as
// a group of one. A head that is already cut at or past the unit where
// the stage gathers has nothing to run alone; it joins the group of its
// cut on the spot and the worker picks again. A head that a forwarding
// stage will hand off, popped with at least a middle group's width of
// jobs queued, takes the heads behind it along (takeRunLocked) — never
// held, so a lone job on an idle stage waits for nothing. False: nothing
// to run now, and wait is pick's. A closed scheduler holds no group
// back: every one has fallen due by now + hold.
func (fs *fleetScheduler) takeLocked(now time.Time) (task, time.Duration, bool) {
	if n := len(fs.returned); n > 0 {
		// Newest first: the list is short, and its array is used again.
		pj := fs.returned[n-1]
		fs.returned[n-1] = pendingJob{} // drop references for GC
		fs.returned = fs.returned[:n-1]
		return task{jobs: []pendingJob{pj}}, 0, true
	}
	g := fs.s.gather()
	ripeBy := now
	if fs.closed {
		ripeBy = now.Add(g.hold)
	}
	for {
		i, wait := pick(fs.queued, fs.parked, g.max, ripeBy)
		if i >= 0 {
			t := fs.parked[i]
			fs.parked = append(fs.parked[:i], fs.parked[i+1:]...)
			return t, 0, true
		}
		if fs.queued == 0 {
			return task{}, wait, false
		}
		queued := fs.queued
		pj := fs.popLocked()
		fs.owed.Add(1)
		switch {
		case fs.s.handsOff(pj) && queued >= g.max:
			return task{jobs: fs.takeRunLocked(pj, g.max)}, 0, true
		case g.at < 0 || pj.req.Cut < g.at:
			return task{jobs: []pendingJob{pj}}, 0, true
		}
		fs.parkLocked(pj, now)
	}
}

// takeRunLocked returns the middle group that head opens: head and the
// WFQ heads after it, popped while they are jobs of its cut, max in all.
// A job of another cut or a set ends the run where it stands, and
// the group runs as far as it got. The heads leave in WFQ order, so the
// group is what fairness would have served next anyway.
func (fs *fleetScheduler) takeRunLocked(head pendingJob, max int) []pendingJob {
	jobs := append(make([]pendingJob, 0, max), head)
	for len(jobs) < max {
		tq := fs.headLocked()
		if tq == nil || tq.q[0].req.Cut != head.req.Cut {
			break
		}
		jobs = append(jobs, fs.popLocked())
		fs.owed.Add(1)
	}
	return jobs
}

// parkLocked puts a line job that is cut where the stage gathers into
// the open group of its cut, or opens one behind the others. Parked jobs
// are owed work the queue depth no longer counts; what bounds them is
// that a group is taken, whole, as soon as it is full, or the queue is
// empty and its hold over.
func (fs *fleetScheduler) parkLocked(pj pendingJob, now time.Time) {
	g := fs.s.gather()
	pj.parked = now
	for i := range fs.parked {
		if t := &fs.parked[i]; t.jobs[0].req.Cut == pj.req.Cut && len(t.jobs) < g.max {
			t.jobs = append(t.jobs, pj)
			return
		}
	}
	fs.parked = append(fs.parked, task{jobs: []pendingJob{pj}, due: now.Add(g.hold)})
}

// park is parkLocked for the worker that has just run a job's conv
// span. Nobody is woken: that worker picks next, and finds the group.
func (fs *fleetScheduler) park(pj pendingJob) {
	fs.mu.Lock()
	fs.parkLocked(pj, time.Now())
	fs.mu.Unlock()
}

// giveBack takes a job whose forward failed — the hop shed it, hung or
// died — back from the hop's reader, for a worker to finish here.
func (fs *fleetScheduler) giveBack(pj pendingJob) {
	fs.mu.Lock()
	fs.returned = append(fs.returned, pj)
	fs.cond.Signal()
	fs.mu.Unlock()
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
// one; larger ones gathered while parked, or were taken off the queue
// together for a middle segment (takeLocked). due is when a parked group
// opened plus the stage's hold: until then it waits, unless it fills.
type task struct {
	jobs []pendingJob
	due  time.Time
}

// run is the one stage task. It checks every member and runs the valid
// ones from their cut as one batch (advance): to the last unit, where
// each is classified and answered — or, from a cut before the unit
// where this stage lets a job go, to that unit, where each member leaves
// on its own as what it has become, a job cut there: for the next hop
// on a forwarding stage, for the tail group of that cut on a stage that
// parks. That makes the fallback this same task: a job the hop gave
// back, or never took, comes in again at the handoff unit with the
// tensor it left with, alone, and keeps the pickup stamp of its first
// pass — as does a parked job, whose group is this task once more.
//
// Failure attribution: a member that fails its check fails only its own
// connection, and only after the group's valid replies have been
// written — the demux guarantee other tenants rely on. A failure of the
// shared pass fails the connection of every member that was in it.
func (fs *fleetScheduler) run(t task) {
	s, o := fs.s, fs.s.obsv
	start := time.Now()
	grouped := false
	valid := t.jobs[:0] // filtered in place: the group is this task's alone
	var invalid []invalidJob
	for _, pj := range t.jobs {
		switch {
		case !pj.parked.IsZero():
			grouped = true
			o.span(TrackServer, SpanCoalesceWait, int(pj.req.JobID), pj.parked, start)
			if pj.start.IsZero() { // parked as it was popped, cut at the tail: no pass before this one
				pj.start = start
				o.span(TrackServer, SpanQueueWait, int(pj.req.JobID), pj.recv, pj.parked)
			}
		case pj.start.IsZero():
			pj.start = start
			o.span(TrackServer, SpanQueueWait, int(pj.req.JobID), pj.recv, start)
		default:
			o.NextHopFallbacks.Inc()
		}
		if err := s.check(pj); err != nil {
			invalid = append(invalid, invalidJob{pj: pj, err: fmt.Errorf("job %d: %w", pj.req.JobID, err)})
			continue
		}
		valid = append(valid, pj)
	}
	if len(valid) > 0 {
		fs.pass(valid, grouped)
	}
	for _, iv := range invalid {
		fs.fail(iv.pj, iv.err)
	}
}

// pass takes the checked members of a task through the model together
// and sees each off: answered — its class read off the logits the pass
// ends at, by engine.SoftmaxArgmaxBatch — handed over, parked or failed.
// A pass is counted by its size where its jobs are gathered, of one or
// more: a tail group (grouped: the jobs were parked, for however long)
// and a forwarding stage's middle segment, whose group was taken at the
// pop.
func (fs *fleetScheduler) pass(jobs []pendingJob, grouped bool) {
	s, o, n := fs.s, fs.s.obsv, len(jobs)
	if grouped || s.handsOff(jobs[0]) {
		o.BatchSize.Observe(float64(n))
		if n > 1 {
			o.BatchedJobs.Add(int64(n))
		} else {
			o.SoloJobs.Inc()
		}
	}
	var seed *tensor.Tensor
	if jobs[0].req.Cut >= 0 {
		seed = s.pack(jobs)
	}
	out, to, err := s.advance(jobs, seed)
	switch {
	case err != nil:
		for _, pj := range jobs {
			fs.fail(pj, err)
		}
	case to < len(s.units)-1:
		// Each member leaves with its own slice of the pass, as a job cut
		// at unit to: parked for the tail group of that cut, or handed to
		// the next hop — and one the hop does not take is finished here,
		// alone, by this same task. A member's slice is a buffer of the
		// model's arena, which whoever finishes the member gives back: the
		// relayed reply of the next hop (readLoop), or the pass that runs
		// it to the sink here.
		exit := s.units[to].Exit
		for i, pj := range jobs {
			pj.req.Cut, pj.req.Pairs[0] = to, boundary{Node: exit, T: s.model.Unpack(out, n, i)}
		}
		if n > 1 {
			out.Recycle()
			seed.Recycle()
		}
		for _, pj := range jobs {
			switch {
			case s.next == nil:
				fs.park(pj)
			case !s.next.handOff(pj):
				fs.run(task{jobs: []pendingJob{pj}})
			}
		}
	default:
		// out holds the members' logits; each class is read off them,
		// exactly the class the model's softmax sink would give.
		end := time.Now()
		for i, pj := range jobs {
			fs.answer(pj, int32(engine.SoftmaxArgmaxBatch(out, n, i)), 0, end)
		}
		// The jobs are done with and out has been read: what the pass was
		// fed and what it made go back to the model's arena — a packed
		// group, a job whose conv span ran here or a member unpacked here
		// came from it; a boundary off the wire came from none, and
		// Recycle leaves it be. A span that ran no node (a job cut just
		// before a sink that is a unit of its own) returned what it was
		// fed, and that goes back once.
		if out != seed {
			out.Recycle()
		}
		if n > 1 {
			seed.Recycle()
		}
		for _, pj := range jobs {
			for _, p := range pj.req.Pairs {
				p.T.Recycle()
			}
		}
	}
}

// invalidJob pairs a rejected group member with its own error.
type invalidJob struct {
	pj  pendingJob
	err error
}

// pack gathers a checked group's boundary tensors for the engine to
// lay side by side as the packed batch it runs (engine.Model.Pack), in
// a buffer from the model's arena that pass gives back — a group forms
// per pickup, and a fresh n-wide buffer each time would be most of what
// a member allocates. A batch of one is the tensor itself.
func (s *Server) pack(jobs []pendingJob) *tensor.Tensor {
	return s.model.Pack(len(jobs), func(b int) *tensor.Tensor { return jobs[b].req.Pairs[0].T })
}

// handsOff reports whether this stage's pass on a job ends at the
// handoff: a line job cut before the next hop's unit on a forwarding
// stage.
func (s *Server) handsOff(pj pendingJob) bool {
	return s.next != nil && 0 <= pj.req.Cut && pj.req.Cut < s.next.cut
}

// advance runs a checked group from its cut as one batch — seed, the
// packed boundary — as far as this stage takes it: unit to, and returns
// runSpan's activation there: the logits the members' classes are read
// off, unless the group is cut before the unit where the stage hands it
// over or parks it, where it is that unit's exit. An image's output
// does not depend on who shares its group: the engine routes each GEMM
// on its weights alone and keeps its accumulation order at every batch
// size, so a job's logits are bit for bit the same alone and in a
// group of any size, on every host. A boundary set differs only in how
// its nodes are found.
func (s *Server) advance(jobs []pendingJob, seed *tensor.Tensor) (out *tensor.Tensor, to int, err error) {
	to = len(s.units) - 1
	from := jobs[0].req.Cut // one per group: members share the cut
	if from < 0 {
		out, err = s.resumeSet(jobs[0].req.Pairs)
		return out, to, err
	}
	stop := s.gather().at
	if s.next != nil {
		stop = s.next.cut
	}
	if from < stop {
		to = stop
	}
	out, err = s.runSpan(from, to, len(jobs), seed)
	return out, to, err
}

// resumeSet runs the remote side of a checked boundary set — every
// node outside the set's ancestor closure, the softmax sink aside — and
// returns what runSide leaves at the last unit: the logits.
func (s *Server) resumeSet(pairs []boundary) (*tensor.Tensor, error) {
	acts := make(map[int]*tensor.Tensor, len(pairs))
	nodes := make([]int, len(pairs))
	for i, p := range pairs {
		nodes[i] = p.Node
		acts[p.Node] = p.T
	}
	if _, _, err := s.runSide(acts, nil, nodes); err != nil {
		return nil, err
	}
	return acts[s.exit(len(s.units)-1)], nil
}

// answer is the one reply epilogue: whichever way a job was computed —
// in a group or on its own, after a fallback, or by the next hop — its
// reply is built, stamped and written here, and the job released. The
// stamps mean the same on every path: QueueNs is decode done to worker
// pickup (the hold of a job that arrived cut at the tail included, so it
// shows up as queue time on the server, not as phantom communication delay in the client's
// CommMs), and CloudNs is first worker pickup to answer ready, end —
// checking and packing, a middle segment and the wait for the next hop,
// or a conv span, the park at the tail unit and the group's pass, are
// this stage's work on the job, not link time. Members of a group that
// were picked up together share CloudNs and the cloud-compute interval;
// a tail group's members each keep the pickup of their own conv span.
// A write failure fails only the owning connection.
func (fs *fleetScheduler) answer(pj pendingJob, class int32, flags uint8, end time.Time) {
	o := fs.s.obsv
	rep := inferReply{
		JobID:   pj.req.JobID,
		Class:   class,
		CloudNs: end.Sub(pj.start).Nanoseconds(),
		QueueNs: pj.start.Sub(pj.recv).Nanoseconds(),
		Flags:   flags | fs.hintFlags(),
	}
	o.span(TrackServer, SpanCloudCompute, int(rep.JobID), pj.start, end)
	if rep.Flags&replyFlagBackpressure != 0 {
		o.BackpressureReplies.Inc()
	}
	if err := pj.conn.reply(rep); err != nil {
		pj.conn.fail(err)
	} else {
		o.TenantJobs.With(pj.tenant).Inc()
	}
	pj.conn.pending.Done()
	fs.settle()
}

// fail gives a dispatched job up: its connection fails with err (the
// first error sticks) and the job is released.
func (fs *fleetScheduler) fail(pj pendingJob, err error) {
	pj.conn.fail(err)
	pj.conn.pending.Done()
	fs.settle()
}

// settle takes an answered or failed job off what the pool owes. The
// last one lets a closed pool go.
func (fs *fleetScheduler) settle() {
	if fs.owed.Add(-1) == 0 {
		fs.mu.Lock()
		if fs.closed {
			fs.cond.Broadcast()
		}
		fs.mu.Unlock()
	}
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
