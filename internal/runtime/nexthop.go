package runtime

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// Next-hop forwarding: a server configured with WithNextHop becomes a
// middle pipeline stage of a device chain instead of the terminal
// cloud. For a request cut at c before the handoff boundary h, the
// stage's task (fleetScheduler.run) stops at h: it runs only the middle
// segment (c, h], and the job — now a job cut at h — ships to the next
// server on the same job frame, one pair at unit h's exit; the
// downstream class is relayed back to the stage's own client. So
// jpsserve processes compose into the k-way chains core.JPSChain plans.
// Jobs already cut at or past h, and boundary sets, run to the sink
// locally as always.
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
//     returns to the pool; it never waits for the reply. (For a middle
//     group it does so for each member in turn.) A full window
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
//     parked on it goes back to this stage's pool, where the same task
//     runs it from h to the sink; a shed reply falls back for that job
//     alone — shed means "not computed", which is never true once the
//     fallback ran. The next handoff redials. Each admitted job is
//     answered exactly once: it is owned by a worker, a slot or the
//     scheduler's returned list, never two of them. A reader never
//     waits for a worker: it frees the slot, leaves the job on that
//     list (fleetScheduler.giveBack) and reads on, so workers that all
//     wait for a slot cannot wedge it.
//   - Drain order on Close: queues, then every popped job answered
//     (fleetScheduler.owed — a job in a slot may still need the pool
//     for its fallback), then the pool, then the forwarding connection
//     and its reader.
//
// A forwarding stage parks no tail groups. It groups its middle segment
// instead: a worker takes up to midGroupWidth queued jobs of one cut,
// runs (c, h] for them as one pass, and each member then goes out on a
// frame and a slot of its own, or falls back alone (Server.gather,
// fleetScheduler.takeLocked).

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

// forwardSlot is one entry of the in-flight table; fc == nil means free.
// The job it holds is past its middle segment — its request is cut at
// the handoff unit and carries the activation there — which is all it
// takes to relay the downstream's answer, or to finish the job here.
type forwardSlot struct {
	pendingJob
	fc   *forwardConn // connection the handoff went out on
	sent time.Time    // handoff flushed (recorded with a tracer only)
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

	// free holds the indexes of the free slots; its capacity is the
	// window, so returning an index never blocks.
	free chan uint32

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
	return s, nil
}

// start sizes the slot table and binds the hop to the scheduler whose
// pool finishes the jobs it gives back; called once, before the workers
// start.
func (nh *nextHop) start(fs *fleetScheduler) {
	nh.fs = fs
	nh.slots = make([]forwardSlot, nh.window)
	nh.free = make(chan uint32, nh.window)
	for i := range nh.slots {
		nh.free <- uint32(i)
	}
}

// handOff parks the job in a slot and writes its handoff frame. It
// returns false when the job was never parked — the hop cannot be
// dialed, or its connection died under us — and is still the caller's
// to finish. Once parked the job belongs to the connection's reader,
// write error or not.
func (nh *nextHop) handOff(pj pendingJob) bool {
	idx := <-nh.free // a full window blocks the worker
	nh.wmu.Lock()
	defer nh.wmu.Unlock()
	fc, err := nh.connect()
	if err != nil || !nh.park(idx, fc, pj) {
		nh.free <- idx
		return false
	}
	_ = fc.conn.SetWriteDeadline(time.Now().Add(nh.stall)) // a failed deadline only loses the timeout
	err = writeJob(fc.w, idx, pj.req.Pairs)
	if err == nil {
		err = fc.w.Flush()
	}
	if err != nil {
		nh.kill(fc)
		return true
	}
	if nh.fs.s.obsv.Tracer != nil {
		nh.mu.Lock()
		// The reply may already have retired the slot, or even refilled it.
		if sl := &nh.slots[idx]; sl.fc == fc && sl.req == pj.req {
			sl.sent = time.Now()
		}
		nh.mu.Unlock()
	}
	return true
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
func (nh *nextHop) park(idx uint32, fc *forwardConn, pj pendingJob) bool {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	if fc.dead {
		return false
	}
	nh.slots[idx] = forwardSlot{pendingJob: pj, fc: fc}
	if fc.inFlight == 0 {
		fc.progress = time.Now()
	}
	fc.inFlight++
	nh.fs.s.obsv.NextHopForwards.Inc()
	nh.fs.s.obsv.NextHopInFlight.Add(1)
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
	nh.fs.s.obsv.NextHopInFlight.Add(-1)
	return sl, true
}

// orphans empties every slot still parked on a dead connection.
func (nh *nextHop) orphans(fc *forwardConn) []pendingJob {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	var jobs []pendingJob
	for i := range nh.slots {
		if nh.slots[i].fc == fc {
			jobs = append(jobs, nh.slots[i].pendingJob)
			nh.slots[i] = forwardSlot{}
			nh.free <- uint32(i)
		}
	}
	fc.inFlight = 0
	nh.fs.s.obsv.NextHopInFlight.Add(-float64(len(jobs)))
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
// fails, then gives every job still parked on it back to the pool.
func (nh *nextHop) readLoop(fc *forwardConn) {
	defer nh.readers.Done()
	for {
		_ = fc.conn.SetReadDeadline(time.Now().Add(nh.stall)) // as in handOff
		typ, err := fc.r.ReadByte()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && !nh.stalled(fc) {
				continue
			}
			break
		}
		if typ != msgReply {
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
			nh.fs.giveBack(sl.pendingJob)
			continue
		}
		if sl.sent.IsZero() {
			sl.sent = end // the reply overtook the stamp
		}
		nh.fs.s.obsv.span(TrackServer, SpanForwardWait, int(sl.req.JobID), sl.sent, end)
		// Only the downstream's backpressure hint survives the relay.
		nh.fs.answer(sl.pendingJob, down.Class, down.Flags&replyFlagBackpressure, end)
		// The job is done with: its handoff tensor goes back to the arena
		// it came from, the model's or the stage's packs, as a pass that
		// ends at the sink gives back its own. A shed or orphaned job keeps
		// its tensor above: its fallback runs from it.
		sl.req.Pairs[0].T.Recycle()
	}
	nh.kill(fc)
	for _, job := range nh.orphans(fc) {
		nh.fs.giveBack(job)
	}
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
