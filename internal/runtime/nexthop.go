package runtime

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"dnnjps/internal/engine"
	"dnnjps/internal/tensor"
)

// Next-hop forwarding: a server configured with WithNextHop becomes a
// middle pipeline stage of a device chain instead of the terminal
// cloud. For a request cut at c before the handoff boundary h, the
// stage executes only the middle segment (c, h] locally, ships the
// tensor at h to the next server over the same infer wire protocol,
// and relays the downstream class back to its own client — so
// jpsserve processes compose into the k-way chains core.JPSChain
// plans. Requests already cut at or past h (including a terminal
// stage's full-suffix traffic) run locally as always.
//
// The hop is a windowed pipeline, the way the chain model prices it: a
// link is busy only for its own transmission, never for the round trip
// plus the downstream's compute.
//
//	worker: (c, h] -> slot -> handoff frame      reader: reply -> slot -> relay
//	   \-- back to the pool, job parked --/         \-- one per connection --/
//
//   - A pool worker computes the middle segment, parks the job in a
//     free slot of a fixed-size table, writes the handoff frame and
//     returns to the pool; it never waits for the reply. A full window
//     blocks the worker, which backs the queue up into the shed
//     watermark like any other saturated pool.
//   - The frame's JobID is the slot index. Every upstream connection
//     numbers its jobs from zero and all of them share the one
//     downstream socket, so their own IDs would collide there; the
//     slot remembers whose job it is.
//   - One reader goroutine per forwarding connection decodes replies
//     (in any order), retires the slot and answers the owning upstream
//     connection. Only the downstream's backpressure hint survives
//     into the relayed reply.
//   - Failure is local fallback, mirroring the client runner: a hop
//     that cannot be dialed finishes the job on this worker; a write or
//     read error, a reply for an unknown slot, or a hop that goes
//     silent (forwardStall) tears the connection down and every job
//     parked on it finishes its suffix on this stage's pool from the
//     handoff tensor its slot still holds; a shed reply falls back for
//     that job alone — shed means "not computed", which is never true
//     once the fallback ran. The next handoff redials. Each admitted
//     job is answered exactly once: it is owned by a worker, a slot or
//     the fallback channel, never two of them.
//   - Drain order on Close: queues, then every forwarded job answered
//     (nextHop.owed — a parked job may still need the pool for its
//     fallback), then the pool, then the forwarding connection and its
//     reader.
//
// A forwarding stage never coalesces: the batched path runs the full
// suffix locally and would bypass the hop, and no traffic yet batches a
// middle segment.

const (
	// forwardWindow is how many handoffs may await their reply at once.
	forwardWindow = 256
	// forwardStall bounds the dial, one handoff write, and how long the
	// reader lets forwards sit in flight without any reply before it
	// declares the hop hung (it notices within two such periods). It has
	// to outlast the downstream's slowest single job, not its queue:
	// every reply restarts it.
	forwardStall = 10 * time.Second
)

// forwardJob is a job past its middle segment: everything needed to
// relay the downstream's answer, or to finish the suffix here.
type forwardJob struct {
	pj      pendingJob
	handoff *tensor.Tensor // activation at the handoff boundary
	start   time.Time      // worker pickup; CloudNs and cloud-compute run from here
}

// forwardSlot is one entry of the in-flight table; fc == nil means free.
type forwardSlot struct {
	forwardJob
	fc   *forwardConn // connection the handoff went out on
	sent time.Time    // handoff flushed (recorded with obs only)
}

// forwardConn is one dialed connection to the next hop and its reader.
type forwardConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer // guarded by nextHop.wmu

	// Guarded by nextHop.mu.
	dead     bool      // torn down: nothing parks on it any more
	inFlight int       // slots parked on this connection
	progress time.Time // last reply, or the handoff that ended an idle spell
}

// nextHop is the forwarding half of a middle stage.
type nextHop struct {
	addr   string
	cut    int // handoff boundary: the tensor at units[cut].Exit ships
	window int
	stall  time.Duration
	fs     *fleetScheduler

	// owed counts forwarding jobs dispatched and not yet answered. The
	// dispatcher waits on it before closing the pool.
	owed sync.WaitGroup
	// free holds the indexes of the free slots; its capacity is the
	// window, so returning an index never blocks.
	free chan uint32
	// fallbacks hands jobs whose forward failed from a reader to the
	// pool. Unbuffered: every worker that is idle or waiting for a slot
	// receives from it, so a reader's send cannot wedge.
	fallbacks chan forwardJob

	// wmu is the socket-write lock: dialing and handoff frames. It is
	// taken before mu, never after, and the reader never takes it — a
	// blocked write cannot hold up replies.
	wmu sync.Mutex
	// mu guards the slot table, cur and the forwardConn fields above.
	mu      sync.Mutex
	slots   []forwardSlot
	cur     *forwardConn // nil until dialed and after a teardown
	readers sync.WaitGroup
}

// WithNextHop turns the server into a middle pipeline stage: requests
// cut before the handoff position are computed up to it and forwarded
// to addr (host:port, same wire protocol). cut must leave work for the
// downstream stage — at most len(units)-2, since a handoff at the sink
// would ship a finished result. Must be called before serving.
func (s *Server) WithNextHop(addr string, cut int) (*Server, error) {
	if addr == "" {
		return nil, fmt.Errorf("runtime: next hop needs an address")
	}
	if cut < 0 || cut >= len(s.units)-1 {
		return nil, fmt.Errorf("runtime: next-hop cut %d out of range [0,%d) for %d units",
			cut, len(s.units)-1, len(s.units))
	}
	s.next = &nextHop{
		addr:   addr,
		cut:    cut,
		window: forwardWindow,
		stall:  forwardStall,
	}
	// mid[c] holds the nodes of units (c, cut] — the segment this stage
	// computes before handing off. The boundary node units[cut].Exit has
	// consumers outside the list, so the engine keeps its activation
	// live for serialization (and for the local fallback).
	s.mid = make([][]int, cut)
	for c := 0; c < cut; c++ {
		var nodes []int
		for _, u := range s.units[c+1 : cut+1] {
			nodes = append(nodes, u.Nodes...)
		}
		s.mid[c] = nodes
	}
	return s, nil
}

// start sizes the slot table and binds the hop to the scheduler whose
// pool runs its fallbacks; called once, before the workers start.
func (nh *nextHop) start(fs *fleetScheduler) {
	nh.fs = fs
	nh.slots = make([]forwardSlot, nh.window)
	nh.free = make(chan uint32, nh.window)
	for i := range nh.slots {
		nh.free <- uint32(i)
	}
	nh.fallbacks = make(chan forwardJob)
}

// forwardTask wraps one job cut before the handoff into a pool task:
// middle segment here, then the handoff. The worker leaves as soon as
// the frame is flushed; the hop's reader (or a fallback) answers.
func (fs *fleetScheduler) forwardTask(pj pendingJob) func() {
	s, nh := fs.s, fs.s.next
	nh.owed.Add(1)
	return func() {
		start := time.Now()
		o := s.obsv
		o.span(TrackServer, SpanQueueWait, int(pj.req.JobID), pj.recv, start)
		if o != nil {
			o.WorkersBusy.Add(1)
			defer o.WorkersBusy.Add(-1)
		}
		boundary, err := s.boundaryOf(pj.req)
		var acts map[int]*tensor.Tensor
		if err == nil {
			acts = map[int]*tensor.Tensor{boundary: pj.req.Tensor}
			err = s.model.Execute(acts, nil, s.mid[pj.req.Cut])
		}
		if err != nil {
			pj.conn.fail(err)
			pj.conn.pending.Done()
			nh.owed.Done()
			return
		}
		job := forwardJob{pj: pj, handoff: acts[s.units[nh.cut].Exit], start: start}
		if !nh.handOff(job) {
			fs.fallback(job)
		}
	}
}

// handOff parks the job in a slot and writes its handoff frame. It
// returns false when the job was never parked — the hop cannot be
// dialed, or its connection died under us — and is still the caller's
// to finish. Once parked the job belongs to the connection's reader,
// write error or not.
func (nh *nextHop) handOff(job forwardJob) bool {
	idx := nh.acquire()
	nh.wmu.Lock()
	defer nh.wmu.Unlock()
	fc, err := nh.connect()
	if err != nil || !nh.park(idx, fc, job) {
		nh.free <- idx
		return false
	}
	_ = fc.conn.SetWriteDeadline(time.Now().Add(nh.stall)) // a failed deadline only loses the timeout
	err = writeInferRequest(fc.w, &inferRequest{JobID: idx, Cut: uint32(nh.cut), Tensor: job.handoff})
	if err == nil {
		err = fc.w.Flush()
	}
	if err != nil {
		nh.kill(fc)
		return true
	}
	if nh.fs.s.obsv != nil {
		nh.mu.Lock()
		// The reply may already have retired the slot, or even refilled it.
		if sl := &nh.slots[idx]; sl.fc == fc && sl.pj.req == job.pj.req {
			sl.sent = time.Now()
		}
		nh.mu.Unlock()
	}
	return true
}

// acquire takes a free slot index, blocking while the window is full. A
// worker waiting here still serves fallbacks: the reader that would
// free a slot may itself be waiting to hand one over.
func (nh *nextHop) acquire() uint32 {
	for {
		select {
		case idx := <-nh.free:
			return idx
		case job := <-nh.fallbacks:
			nh.fs.fallback(job)
		}
	}
}

// connect returns the live forwarding connection, dialing it and
// starting its reader when there is none. Called under wmu.
func (nh *nextHop) connect() (*forwardConn, error) {
	nh.mu.Lock()
	fc := nh.cur
	nh.mu.Unlock()
	if fc != nil {
		return fc, nil
	}
	conn, err := net.DialTimeout("tcp", nh.addr, nh.stall)
	if err != nil {
		return nil, fmt.Errorf("runtime: next hop %s: %w", nh.addr, err)
	}
	fc = &forwardConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriterSize(conn, 1<<16)}
	nh.mu.Lock()
	nh.cur = fc
	nh.mu.Unlock()
	nh.readers.Add(1)
	go nh.readLoop(fc)
	return fc, nil
}

// park records the job in slot idx as in flight on fc; false if fc was
// torn down first.
func (nh *nextHop) park(idx uint32, fc *forwardConn, job forwardJob) bool {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	if fc.dead {
		return false
	}
	nh.slots[idx] = forwardSlot{forwardJob: job, fc: fc}
	if fc.inFlight == 0 {
		fc.progress = time.Now()
	}
	fc.inFlight++
	if o := nh.fs.s.obsv; o != nil {
		o.NextHopForwards.Inc()
		o.NextHopInFlight.Add(1)
	}
	return true
}

// retire empties the slot that a reply arriving on fc at time now
// names and returns what it held; false for an ID that is not in
// flight on fc.
func (nh *nextHop) retire(fc *forwardConn, id uint32, now time.Time) (forwardSlot, bool) {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	if id >= uint32(len(nh.slots)) || nh.slots[id].fc != fc {
		return forwardSlot{}, false
	}
	sl := nh.slots[id]
	nh.slots[id] = forwardSlot{}
	nh.free <- id
	fc.inFlight--
	fc.progress = now
	if o := nh.fs.s.obsv; o != nil {
		o.NextHopInFlight.Add(-1)
	}
	return sl, true
}

// orphans empties every slot still parked on a dead connection.
func (nh *nextHop) orphans(fc *forwardConn) []forwardJob {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	var jobs []forwardJob
	for i := range nh.slots {
		if nh.slots[i].fc == fc {
			jobs = append(jobs, nh.slots[i].forwardJob)
			nh.slots[i] = forwardSlot{}
			nh.free <- uint32(i)
		}
	}
	fc.inFlight = 0
	if o := nh.fs.s.obsv; o != nil {
		o.NextHopInFlight.Add(-float64(len(jobs)))
	}
	return jobs
}

// stalled reports whether forwards have sat on fc for a whole stall
// period without a single reply. An idle connection is never stalled.
func (nh *nextHop) stalled(fc *forwardConn) bool {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	return fc.inFlight > 0 && time.Since(fc.progress) >= nh.stall
}

// kill marks fc dead — nothing parks on it again and the next handoff
// redials — and closes its socket, which is what wakes its reader to
// collect the orphans. Idempotent.
func (nh *nextHop) kill(fc *forwardConn) {
	nh.mu.Lock()
	fc.dead = true
	if nh.cur == fc {
		nh.cur = nil
	}
	nh.mu.Unlock()
	fc.conn.Close()
}

// readLoop is the connection's reply reader: it relays each reply to
// the upstream connection that owns the slot until the connection
// fails, then sends every job still parked on it to the pool.
func (nh *nextHop) readLoop(fc *forwardConn) {
	defer nh.readers.Done()
	fs := nh.fs
	// One reply value serves every relay: finishReply's pointer does not
	// outlive the upstream write.
	var rep inferReply
	for {
		_ = fc.conn.SetReadDeadline(time.Now().Add(nh.stall)) // as in handOff
		typ, err := fc.r.ReadByte()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && !nh.stalled(fc) {
				continue
			}
			break
		}
		if typ != msgInfer {
			break
		}
		down, err := readInferReplyBody(fc.r)
		if err != nil {
			break
		}
		end := time.Now()
		sl, ok := nh.retire(fc, down.JobID, end)
		if !ok {
			break
		}
		if down.Flags&replyFlagShed != 0 {
			nh.fallbacks <- sl.forwardJob
			continue
		}
		pj := sl.pj
		rep = inferReply{
			JobID:   pj.req.JobID,
			Class:   down.Class,
			CloudNs: end.Sub(sl.start).Nanoseconds(),
			QueueNs: sl.start.Sub(pj.recv).Nanoseconds(),
			Flags:   down.Flags & replyFlagBackpressure,
		}
		if o := fs.s.obsv; o != nil {
			if sl.sent.IsZero() {
				sl.sent = end // the reply overtook the stamp
			}
			o.span(TrackServer, SpanForwardWait, int(pj.req.JobID), sl.sent, end)
			o.span(TrackServer, SpanCloudCompute, int(pj.req.JobID), sl.start, end)
		}
		fs.finishReply(pj, &rep)
		pj.conn.pending.Done()
		nh.owed.Done()
	}
	nh.kill(fc)
	for _, job := range nh.orphans(fc) {
		nh.fallbacks <- job
	}
}

// fallback finishes a job whose forward failed: the whole remaining
// suffix, on this stage, from the handoff tensor. Runs on a pool
// worker.
func (fs *fleetScheduler) fallback(job forwardJob) {
	s, pj := fs.s, job.pj
	defer s.next.owed.Done()
	defer pj.conn.pending.Done()
	acts := map[int]*tensor.Tensor{s.units[s.next.cut].Exit: job.handoff}
	if err := s.model.Execute(acts, nil, s.suffix[s.next.cut]); err != nil {
		pj.conn.fail(err)
		return
	}
	end := time.Now()
	if o := s.obsv; o != nil {
		o.NextHopFallbacks.Inc()
		o.span(TrackServer, SpanCloudCompute, int(pj.req.JobID), job.start, end)
	}
	fs.finishReply(pj, &inferReply{
		JobID:   pj.req.JobID,
		Class:   int32(engine.Argmax(acts[s.model.Graph().Sink()])),
		CloudNs: end.Sub(job.start).Nanoseconds(),
		QueueNs: job.start.Sub(pj.recv).Nanoseconds(),
	})
}

// close tears down the forwarding connection if one is up and waits
// for every reader to exit. Call it after the scheduler has drained:
// nothing dials any more, and no job is left for a reader to orphan.
func (nh *nextHop) close() {
	nh.mu.Lock()
	fc := nh.cur
	nh.mu.Unlock()
	if fc != nil {
		nh.kill(fc)
	}
	nh.readers.Wait()
}
