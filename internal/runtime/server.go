package runtime

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"sync"
	"time"

	"dnnjps/internal/engine"
)

// Server is the cloud side: it holds the same deterministic model as
// the client and finishes inferences from any cut point of the line
// view. Each connection runs a read loop that decodes requests and
// admits them into the server-wide fleet scheduler (see fleet.go):
// one global worker pool, per-tenant weighted fair queueing,
// watermark-based load shedding, and cross-connection batching of the
// model's fully connected tail, by one rule on every terminal server
// (Server.gather, fleetScheduler.pick) — or, on a forwarding stage, of
// the middle segment of queued jobs. Replies go out (possibly out of
// order) under each connection's write mutex as jobs finish, so one
// slow inference never stalls any socket.
type Server struct {
	lineProgram
	// workers bounds concurrent inferences server-wide.
	workers int
	// batchMax is WithBatching's cap on a tail group; below 2 the tile
	// (tailGroupMax) closes one. hold is groupHold; tests that need a
	// group to form whatever the timing lengthen it.
	batchMax int
	hold     time.Duration
	// tenantWeights maps tenant IDs to WFQ weights (see WithTenants);
	// unlisted tenants get weight 1.
	tenantWeights map[string]float64
	// shedWatermark is the queue depth at which admission control
	// starts refusing infer jobs; 0 disables shedding (and the
	// backpressure hint, which fires at half the watermark).
	shedWatermark int
	// obsv is the tracing + metrics bundle, never nil (see orZero).
	obsv *Obs
	// next, when set by WithNextHop, turns this server into a middle
	// pipeline stage (see nexthop.go).
	next *nextHop

	// schedMu guards lazy scheduler creation and Close.
	schedMu     sync.Mutex
	sched       *fleetScheduler
	schedClosed bool
}

// NewServer builds a server for the model. The server-wide worker pool
// defaults to the core count; tune it with WithWorkers.
func NewServer(m *engine.Model) *Server {
	return &Server{lineProgram: newLineProgram(m), workers: goruntime.GOMAXPROCS(0), hold: groupHold, obsv: new(Obs)}
}

// WithWorkers bounds the server-wide worker pool to n concurrent
// inferences (n < 1 means 1, i.e. decode-ahead but serial execution).
// It returns s for chaining and must be called before serving.
func (s *Server) WithWorkers(n int) *Server {
	if n < 1 {
		n = 1
	}
	s.workers = n
	return s
}

// WithTenants sets the weighted-fair-queueing weights the fleet
// scheduler uses to arbitrate admitted jobs between tenants. Tenants
// not in the map (including DefaultTenant, unless listed) get weight
// 1; non-positive weights are ignored. Must be called before serving;
// returns s for chaining.
func (s *Server) WithTenants(weights map[string]float64) *Server {
	s.tenantWeights = weights
	return s
}

// WithShedWatermark enables load shedding: when the scheduler's queue
// depth reaches n, further jobs are answered immediately with a
// shed reply (Class -1, shed flag) instead of queueing, and from n/2
// onward every reply carries the backpressure hint flag. n <= 0
// disables both. Must be called before serving; returns s for
// chaining.
func (s *Server) WithShedWatermark(n int) *Server {
	if n < 0 {
		n = 0
	}
	s.shedWatermark = n
	return s
}

// WithBatching caps the server's tail groups at max jobs instead of the
// GEMM tile's 16 (max < 2 keeps the tile). window is not read: every
// terminal server already holds a tail group that is not full for
// groupHold (see gather); the parameter stays for existing callers. max
// caps tail groups only: a forwarding stage parks none, and its middle
// groups are midGroupWidth wide whatever max says; a quantized model or
// one with no dense head has no tail to group at. Must be called before
// serving; returns s for chaining.
func (s *Server) WithBatching(window time.Duration, max int) *Server {
	s.batchMax = max
	return s
}

// WithObs attaches a tracing + metrics bundle; must be called before
// serving. Returns s for chaining. The server records per-job spans
// (decode, queue-wait, cloud-compute, reply-write) and the pool
// metrics documented on Obs; nil detaches them.
func (s *Server) WithObs(o *Obs) *Server {
	s.obsv = orZero(o)
	return s
}

// acceptBackoffMax caps the retry delay after transient Accept errors.
const acceptBackoffMax = time.Second

// Serve accepts connections until the listener closes, handling each
// connection on its own goroutine. Transient accept errors (EMFILE
// under fd exhaustion, ECONNABORTED) are retried with a small
// exponential backoff instead of killing the whole server; Serve
// returns only on permanent errors such as net.ErrClosed.
func (s *Server) Serve(lis net.Listener) error {
	var delay time.Duration
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// net.Error.Temporary is deprecated for general use, but it
			// is still the only signal that distinguishes per-connection
			// accept failures from a dead listener (net/http's accept
			// loop does the same).
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() { //nolint:staticcheck // see above
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else if delay *= 2; delay > acceptBackoffMax {
					delay = acceptBackoffMax
				}
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		go func() {
			defer conn.Close()
			_ = s.HandleConn(conn)
		}()
	}
}

// scheduler lazily creates the server-wide fleet scheduler on the
// first connection; it returns nil once the server is closed.
func (s *Server) scheduler() *fleetScheduler {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	if s.sched == nil && !s.schedClosed {
		s.sched = newFleetScheduler(s)
	}
	return s.sched
}

// Close drains and stops the fleet scheduler: no new jobs are
// admitted, every already-admitted job (queued, held in a group,
// executing, or in flight at the next hop) still runs and gets its
// reply, then the
// worker pool exits and, on a forwarding stage, the next-hop connection
// closes. It does not close client connections or any listener — stop
// accepting first, then Close. Safe to call multiple times, from
// multiple goroutines, and on a server that never handled a
// connection.
func (s *Server) Close() {
	s.schedMu.Lock()
	s.schedClosed = true
	fs := s.sched
	s.schedMu.Unlock()
	if fs != nil {
		fs.shutdown()
	}
	if s.next != nil {
		s.next.close()
	}
}

// HandleConn processes requests on one connection until EOF. The read
// loop owns the socket's read side and admits decoded jobs into the
// fleet scheduler; executions run on the server-wide worker pool and
// emit replies under this connection's write mutex (whole frames,
// flushed per reply, so frames never interleave). Each inference reply
// carries the server's measured compute time and queue wait so the
// client can isolate the communication delay (the paper's td − tc).
// The first error owned by this connection — decode, execution of its
// jobs, or write — stops the connection; its jobs already admitted
// still drain (their replies fail harmlessly against the closed
// transport), and other connections are unaffected. When the transport
// is closable it is closed on failure so a read loop blocked in
// ReadByte on an idle client unblocks instead of pinning the goroutine
// forever.
func (s *Server) HandleConn(conn io.ReadWriter) error {
	fs := s.scheduler()
	if fs == nil {
		return errServerClosed
	}
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)
	closer, _ := conn.(io.Closer)

	var (
		writeMu  sync.Mutex
		errOnce  sync.Once
		firstErr error
		stop     = make(chan struct{})
	)
	cc := &connCtx{tenant: DefaultTenant}
	cc.fail = func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(stop)
			// A worker failure must also surface to a client that is
			// idle (all requests sent, waiting on replies): closing the
			// transport both unblocks our reader and drops the peer.
			if closer != nil {
				closer.Close()
			}
		})
	}
	cc.reply = func(rep inferReply) error {
		writeMu.Lock()
		start := time.Now()
		err := writeInferReply(w, &rep)
		if err == nil {
			err = w.Flush()
		}
		writeMu.Unlock()
		if err != nil {
			return err
		}
		s.obsv.span(TrackServer, SpanReplyWrite, int(rep.JobID), start, time.Now())
		s.obsv.ServerJobs.Inc()
		s.obsv.ServerTxBytes.Add(ReplyWireBytes)
		return nil
	}

	// admit registers the job with the connection before handing it to
	// the scheduler; a refusal (server closing) is a connection error.
	admit := func(pj pendingJob) bool {
		cc.pending.Add(1)
		if !fs.admit(pj) {
			cc.pending.Done()
			cc.fail(errServerClosed)
			return false
		}
		return true
	}

readLoop:
	for {
		select {
		case <-stop:
			break readLoop
		default:
		}
		typ, err := r.ReadByte()
		if err != nil {
			if err != io.EOF {
				cc.fail(err)
			}
			break readLoop
		}
		switch typ {
		case msgHello:
			tenant, err := readHelloBody(r)
			if err != nil {
				cc.fail(err)
				break readLoop
			}
			// Jobs admitted before the hello keep the default tenant;
			// clients that care send it first (Client does).
			cc.tenant = tenant
		case msgJob:
			decodeStart := time.Now()
			req, err := readJobBody(r)
			if err != nil {
				cc.fail(err)
				break readLoop
			}
			pj := pendingJob{conn: cc, tenant: cc.tenant, req: req, recv: time.Now()}
			s.obsv.span(TrackServer, SpanDecode, int(req.JobID), decodeStart, pj.recv)
			bytes := int64(jobWireBytes(req.Pairs))
			s.obsv.ServerRxBytes.Add(bytes)
			s.obsv.TenantRxBytes.With(cc.tenant).Add(bytes)
			for i := range req.Pairs {
				if p := &req.Pairs[i]; p.Q != nil {
					// Expand the int8 codes once at decode time; everything
					// downstream — a group's pack included — sees the same
					// float32 boundary it always has.
					p.T, p.Q = p.Q.Dequantize(), nil
				}
			}
			req.Cut = s.cutOf(req.Pairs)
			if !admit(pj) {
				break readLoop
			}
		case msgPing:
			// Calibration pings are answered inline: they measure the
			// link, not the pool.
			if _, err := readPingBody(r); err != nil {
				cc.fail(err)
				break readLoop
			}
			writeMu.Lock()
			err := writePong(w)
			if err == nil {
				err = w.Flush()
			}
			writeMu.Unlock()
			if err != nil {
				cc.fail(err)
				break readLoop
			}
		default:
			cc.fail(fmt.Errorf("runtime: unknown message type %d", typ))
			break readLoop
		}
	}
	// Every admitted job must reply or fail before the connection
	// returns: the scheduler keeps running (it is server-wide), so this
	// wait is bounded by the queue drain, and on the failure path the
	// remaining replies fail fast against the closed transport.
	cc.pending.Wait()
	return firstErr
}

// check validates a job's boundary against the model before anything
// runs from it: each pair must name a node of the graph and carry a
// tensor of the shape that node outputs. For a line job that is its
// cut's check too, its one pair being the cut unit's exit. No pair may
// be a softmax sink: no span or side runs it, so a boundary there would
// leave the server no logits to read a class off. A client never ships
// one — the sink has no consumer, and a job that holds it is all local.
func (s *Server) check(pj pendingJob) error {
	g := s.model.Graph()
	for _, p := range pj.req.Pairs {
		if p.Node < 0 || p.Node >= g.Len() {
			return fmt.Errorf("runtime: boundary node %d out of range [0,%d)", p.Node, g.Len())
		}
		if s.logits >= 0 && p.Node == g.Sink() {
			return fmt.Errorf("runtime: boundary %d is the softmax sink: nothing left to run", p.Node)
		}
		if want := g.Node(p.Node).OutShape; !p.T.Shape.Equal(want) {
			return fmt.Errorf("runtime: boundary %d tensor %v, want %v", p.Node, p.T.Shape, want)
		}
	}
	return nil
}
