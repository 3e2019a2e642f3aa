package runtime

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/engine"
	"dnnjps/internal/estimator"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/netsim"
	"dnnjps/internal/regression"
	"dnnjps/internal/tensor"
)

// sendQueueCap bounds how far the compute worker may run ahead of the
// uplink before it blocks. The flow-shop model assumes an unbounded
// buffer between the two machines; a generous cap keeps that property
// for realistic burst sizes while bounding boundary-tensor memory.
const sendQueueCap = 512

// Client is the mobile side: it executes mobile prefixes locally,
// uploads boundary tensors over a bandwidth-shaped link, and collects
// results. The transport is full duplex: a dedicated writer goroutine
// owns the uplink, so it is busy for exactly g(x) per job, and a
// reply-demultiplexer goroutine owns the downlink, matching each
// inferReply.JobID to its in-flight job. Cloud compute of job i
// therefore overlaps the upload of job i+1 — the two-resource pipeline
// the scheduler models (§3.1, Prop. 4.1).
type Client struct {
	lineProgram
	conn   *netsim.ShapedConn
	r      *bufio.Reader
	w      *bufio.Writer
	ch     netsim.Channel
	scale  float64
	obsv   *Obs                 // tracing + metrics, never nil (see orZero)
	est    *estimator.Estimator // optional online link estimator; nil disables feeding
	tenant string               // non-empty: sent as a hello frame before any request

	once  sync.Once // starts the writer + demux goroutines lazily
	sendQ chan wireMsg

	mu         sync.Mutex
	calls      map[uint32]*call // in-flight inferences keyed by JobID
	pongs      []*call          // FIFO calibration waiters
	err        error            // first transport error, sticky
	failed     chan struct{}    // closed once err is set
	ioStarted  bool             // the once fired (readerDone will close)
	readerDone chan struct{}    // closed when the demux goroutine exits

	// Server-pressure accounting off the admission-control flags every
	// reply carries (see fleet.go). The runner reads ServerPressure to
	// decide on a hint-driven replan toward local compute.
	replySamples int     // inference replies seen
	bpReplies    int     // of those, replies with the backpressure flag
	queueMsSum   float64 // server-reported queue wait across all replies
}

// call tracks one in-flight request from enqueue to reply.
type call struct {
	res     *JobResult // nil for pings
	sent    time.Time  // transmission start, set by the writer (under mu)
	sentEnd time.Time  // upload flushed, set by the writer (under mu)
	rtt     float64    // ms from transmission start to reply (pings)
	ok      bool       // reply delivered (false = transport failure)
	done    chan struct{}
}

// wireMsg is one unit of work for the writer goroutine.
type wireMsg struct {
	c    *call
	req  *jobRequest // nil for a ping
	ping int         // calibration payload size
	enq  time.Time   // when the message entered the send queue
}

// NewClient wraps a connection to a Server. timeScale compresses
// simulated network time (see netsim.Shape); pass 1 for real time.
// The client's I/O goroutines start on first remote use and stop on
// the first transport error (including the peer closing the
// connection).
func NewClient(conn net.Conn, m *engine.Model, ch netsim.Channel, timeScale float64) *Client {
	shaped := netsim.Shape(conn, ch, timeScale)
	return &Client{
		lineProgram: newLineProgram(m),
		// Reads go through the shaper too: with a modeled downlink the
		// reply frames are paced; otherwise Read is a passthrough.
		conn:       shaped,
		r:          bufio.NewReaderSize(shaped, 1<<16),
		w:          bufio.NewWriterSize(shaped, 1<<16),
		ch:         ch,
		scale:      timeScale,
		obsv:       new(Obs),
		sendQ:      make(chan wireMsg, sendQueueCap),
		calls:      make(map[uint32]*call),
		failed:     make(chan struct{}),
		readerDone: make(chan struct{}),
	}
}

// WithObs attaches a tracing + metrics bundle. Must be called before
// the client's first remote use; returns c for chaining. The client
// records per-job spans (local-compute, queue-wait, serialize, upload,
// reply-wait) and the uplink/job metrics documented on Obs; nil
// detaches them.
func (c *Client) WithObs(o *Obs) *Client {
	c.obsv = orZero(o)
	return c
}

// WithEstimator attaches an online link estimator: every completed
// upload's ground-truth (bytes, channel-scale duration) is fed into
// it, so the estimator sees exactly what the shaper did, not what the
// channel model predicted. The same estimator may outlive the client —
// the fault-tolerant runner threads one across reconnect attempts so
// the bandwidth estimate carries over. Must be called before the
// client's first remote use; returns c for chaining.
func (c *Client) WithEstimator(e *estimator.Estimator) *Client {
	c.est = e
	return c
}

// WithTenant sets the tenant ID this client announces to the server's
// fleet scheduler (a hello frame sent before the first request). Must
// be called before the client's first remote use; returns c for
// chaining. Clients without a tenant share the server's DefaultTenant
// queue.
func (c *Client) WithTenant(name string) *Client {
	c.tenant = name
	return c
}

// Units returns the number of cut positions of the client's model.
func (c *Client) Units() int { return len(c.units) }

// Err returns the client's sticky transport error, if any. Once set,
// every in-flight and future remote call fails with it.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears down the connection. In-flight jobs fail promptly with
// the resulting read/write error.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) startIO() {
	c.once.Do(func() {
		c.mu.Lock()
		c.ioStarted = true
		c.mu.Unlock()
		// The tenant handshake goes out before the writer goroutine
		// exists, so it is guaranteed to precede every request frame and
		// needs no write coordination.
		if c.tenant != "" {
			err := writeHello(c.w, c.tenant)
			if err == nil {
				err = c.w.Flush()
			}
			if err != nil {
				c.fail(err)
			}
		}
		go c.writeLoop()
		go c.readLoop()
	})
}

// drainReader blocks until the reply demultiplexer has exited, after
// which no further deliveries into registered JobResults can happen.
// Close the connection first, or this waits on the peer. No-op if I/O
// never started. The fault-tolerant runner calls this between
// connection attempts so a straggler reply from a dead attempt can
// never race the same job's resubmission.
func (c *Client) drainReader() {
	c.mu.Lock()
	started := c.ioStarted
	c.mu.Unlock()
	if started {
		<-c.readerDone
	}
}

// fail records the first transport error and wakes every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	close(c.failed)
	calls := c.calls
	c.calls = make(map[uint32]*call)
	pongs := c.pongs
	c.pongs = nil
	c.mu.Unlock()
	for _, cl := range calls {
		close(cl.done)
	}
	for _, cl := range pongs {
		close(cl.done)
	}
}

// writeLoop is the uplink resource: it serializes messages one at a
// time, applying the per-message channel setup latency through the
// shaper so g(l) = w0 + bytes/bandwidth holds per request.
func (c *Client) writeLoop() {
	for {
		select {
		case msg := <-c.sendQ:
			start := time.Now()
			c.mu.Lock()
			msg.c.sent = start
			c.mu.Unlock()
			jobID := -1
			if msg.c.res != nil {
				jobID = msg.c.res.JobID
			}
			c.obsv.span(TrackUplink, SpanQueueWait, jobID, msg.enq, start)
			c.conn.Delay(time.Duration(c.ch.SetupMs * float64(time.Millisecond)))
			serStart := time.Now()
			var bytes int
			var err error
			if msg.req != nil {
				bytes, err = jobWireBytes(msg.req.Pairs), writeJob(c.w, msg.req.JobID, msg.req.Pairs)
			} else {
				err = writePing(c.w, msg.ping)
			}
			serEnd := time.Now()
			if err == nil {
				err = c.w.Flush()
			}
			if err != nil {
				c.fail(err)
				return
			}
			end := time.Now()
			c.mu.Lock()
			msg.c.sentEnd = end
			c.mu.Unlock()
			c.obsv.span(TrackUplink, SpanUpload, jobID, start, end)
			if msg.c.res != nil {
				c.obsv.span(TrackUplink, SpanSerialize, jobID, serStart, serEnd)
				c.noteUpload(bytes, end.Sub(start))
			}
		case <-c.failed:
			return
		}
	}
}

// readLoop is the reply demultiplexer: replies may arrive in any order
// (the server executes jobs on a worker pool), and each is matched to
// its in-flight call by JobID. A reply for an unknown or
// already-answered job is a protocol violation that fails the client.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	for {
		typ, err := c.r.ReadByte()
		if err != nil {
			c.fail(err)
			return
		}
		switch typ {
		case msgReply:
			rep, err := readInferReplyBody(c.r)
			if err != nil {
				c.fail(err)
				return
			}
			if err := c.deliver(rep); err != nil {
				c.fail(err)
				return
			}
		case msgPing:
			if err := c.deliverPong(); err != nil {
				c.fail(err)
				return
			}
		default:
			c.fail(fmt.Errorf("runtime: unexpected reply type %d", typ))
			return
		}
	}
}

// deliver routes one inference reply to its job.
func (c *Client) deliver(rep inferReply) error {
	now := time.Now()
	c.mu.Lock()
	cl, ok := c.calls[rep.JobID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("runtime: reply for unknown or duplicate job %d", rep.JobID)
	}
	delete(c.calls, rep.JobID)
	total := now.Sub(cl.sent)
	sentEnd := cl.sentEnd
	c.mu.Unlock()
	res := cl.res
	res.CloudMs = float64(rep.CloudNs) / 1e6
	res.QueueMs = float64(rep.QueueNs) / 1e6
	// The paper's td − tc: round trip minus the server's own stages
	// (compute, and since the pool can queue under load, queue wait).
	res.CommMs = float64(total.Nanoseconds())/1e6 - res.CloudMs - res.QueueMs
	res.Class = int(rep.Class)
	res.Shed = rep.Flags&replyFlagShed != 0
	res.Done = now
	c.notePressure(rep.Flags, res.QueueMs)
	if sentEnd.IsZero() {
		sentEnd = now // the reply overtook the writer's stamp
	}
	c.obsv.span(TrackCloud, SpanReplyWait, int(rep.JobID), sentEnd, now)
	c.obsv.JobsCompleted.Inc()
	c.obsv.BytesDown.Add(replyWireBytes)
	c.obsv.ReplyLatency.Observe(float64(total.Nanoseconds()) / 1e6)
	cl.ok = true
	close(cl.done)
	return nil
}

// deliverPong routes a calibration acknowledgment to the oldest
// outstanding ping.
func (c *Client) deliverPong() error {
	now := time.Now()
	c.mu.Lock()
	if len(c.pongs) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("runtime: unsolicited pong")
	}
	cl := c.pongs[0]
	c.pongs = c.pongs[1:]
	cl.rtt = float64(now.Sub(cl.sent).Nanoseconds()) / 1e6
	c.mu.Unlock()
	cl.ok = true
	close(cl.done)
	return nil
}

// enqueue registers the job with the demultiplexer and hands its frame
// to the writer. Registration happens before the frame can reach the
// wire, so a reply can never race its own job.
//
// On a quantized model every pair ships as int8 codes under its node's
// calibrated mapping — a quarter of the float32 payload, what the plan
// priced — and the frame carries the mapping, so the server decodes it
// without sharing the calibration. The request is rewritten in place: a
// resubmitted job is not quantized twice.
func (c *Client) enqueue(res *JobResult, req *jobRequest) (*call, error) {
	c.startIO()
	for i := range req.Pairs {
		if p := &req.Pairs[i]; p.T != nil && c.model.IsQuantized() {
			qp, err := c.model.ActivationQParams(p.Node)
			if err != nil {
				return nil, err
			}
			p.Q, p.T = tensor.QuantizeTensor(p.T, qp), nil
		}
	}
	cl := &call{res: res, done: make(chan struct{})}
	id := uint32(res.JobID)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	if _, dup := c.calls[id]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("runtime: job %d already in flight", res.JobID)
	}
	c.calls[id] = cl
	c.mu.Unlock()
	select {
	case c.sendQ <- wireMsg{c: cl, req: req, enq: time.Now()}:
		return cl, nil
	case <-c.failed:
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		return nil, c.Err()
	}
}

// await blocks until the call completes or the transport fails.
func (c *Client) await(cl *call) error { return c.awaitTimeout(cl, 0) }

// ErrJobTimeout is returned by deadline-bounded awaits when the reply
// did not arrive in time. The caller owns recovery: the connection is
// left untouched (typically it tears it down and retries elsewhere).
var ErrJobTimeout = fmt.Errorf("runtime: job deadline exceeded")

// awaitTimeout is await with a per-job deadline. d <= 0 waits forever.
func (c *Client) awaitTimeout(cl *call, d time.Duration) error {
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-cl.done:
		case <-timer.C:
			return ErrJobTimeout
		}
	}
	<-cl.done
	if !cl.ok {
		if err := c.Err(); err != nil {
			return err
		}
		return fmt.Errorf("runtime: connection closed")
	}
	return nil
}

// estMinSampleBytes is the smallest upload fed to the online
// estimator. Below this, transmission time is dominated by timer
// granularity and scheduling noise rather than the link (a 168-byte
// frame crosses an 8 Mb/s channel in 168 µs — well under a sleep
// quantum), so such samples measure the host, not the bandwidth.
// Consequence: a plan that only ships tiny boundaries freezes the
// estimate at its last fat-upload value — the estimator can only see
// what the plan uploads (noted in DESIGN.md "Adaptive replanning").
const estMinSampleBytes = 1024

// noteUpload feeds one completed upload to the online estimator and
// publishes the uplink metrics.
func (c *Client) noteUpload(bytes int, wall time.Duration) {
	measuredMs := float64(wall) / float64(time.Millisecond) / c.scale
	fired := false
	if bytes >= estMinSampleBytes {
		_, fired = c.est.AddUpload(bytes, measuredMs)
	}
	o := c.obsv
	o.BytesUp.Add(int64(bytes))
	if measuredMs > 0 {
		// Channel-scale throughput of this upload in Mb/s.
		o.LinkMbps.Set(float64(bytes) * 8 / (measuredMs * 1000))
	}
	if est, n := c.est.Mbps(); n > 0 {
		o.EstMbps.Set(est)
	}
	if fired {
		o.ChangePoints.Inc()
		o.event(TrackUplink, EventChangePoint, -1, time.Now())
	}
	o.ConnBytes.Set(float64(c.conn.BytesWritten()))
}

// notePressure folds one reply's admission-control flags into the
// server-pressure estimate.
func (c *Client) notePressure(flags uint8, queueMs float64) {
	c.mu.Lock()
	c.replySamples++
	if flags&replyFlagBackpressure != 0 {
		c.bpReplies++
	}
	c.queueMsSum += queueMs
	c.mu.Unlock()
}

// ServerPressure reports what the server's piggybacked admission-
// control hints say about cloud saturation: the fraction of replies
// carrying the backpressure flag, the mean server-reported queue wait,
// and how many replies are behind the estimate (rate is 0 when no
// reply has arrived yet). The fault-tolerant runner feeds these into
// the hint-driven replan (core.ReplanWithHint).
func (c *Client) ServerPressure() (rate float64, meanQueueMs float64, samples int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replySamples == 0 {
		return 0, 0, 0
	}
	return float64(c.bpReplies) / float64(c.replySamples),
		c.queueMsSum / float64(c.replySamples), c.replySamples
}

// JobResult is the outcome of one inference job.
type JobResult struct {
	JobID    int
	Class    int
	Cut      int
	MobileMs float64 // measured local compute time
	CommMs   float64 // measured upload + reply time minus server compute and queueing
	CloudMs  float64 // server-reported compute time
	QueueMs  float64 // server-reported worker-pool queue wait
	Shed     bool    // true: admission control refused the job (Class is -1, no inference ran)
	Done     time.Time
}

// jobCut is where one job is cut: after line-view unit `unit`, or —
// when nodes is non-nil — at an Alg. 3 cut-node set, whose nodes and
// their ancestors are the mobile side (the partition P_j of §3.1). A
// line cut is the set {units[unit].Exit}; it keeps its own form because
// its prefix is known without walking the graph.
type jobCut struct {
	unit  int
	nodes []int
}

// setCut copies nodes so that a set is never nil (runPrefix rejects an
// empty one instead of reading it as a line cut) and stays out of the
// caller's reach while the job is in flight.
func setCut(nodes []int) jobCut { return jobCut{unit: -1, nodes: append([]int{}, nodes...)} }

// RunJob executes a single job synchronously: prefix locally, upload,
// remote suffix. A cut at the last unit runs fully local; a cut at 0
// ships the raw input (cloud-only).
func (c *Client) RunJob(jobID, cut int, input *tensor.Tensor) (*JobResult, error) {
	return c.runOne(jobID, jobCut{unit: cut}, input)
}

// RunCutSet is RunJob for a general-structure partition: cutNodes and
// their ancestors run locally, every boundary tensor with a remote
// consumer ships in one frame, the server resumes from all of them. An
// empty set is rejected; the set {sink} runs fully local.
func (c *Client) RunCutSet(jobID int, cutNodes []int, input *tensor.Tensor) (*JobResult, error) {
	return c.runOne(jobID, setCut(cutNodes), input)
}

func (c *Client) runOne(jobID int, cut jobCut, input *tensor.Tensor) (*JobResult, error) {
	req, res, err := c.computePrefix(jobID, cut, input)
	if err != nil {
		return nil, err
	}
	if req == nil {
		return res, nil // fully local
	}
	cl, err := c.enqueue(res, req)
	if err != nil {
		return nil, err
	}
	if err := c.await(cl); err != nil {
		return nil, err
	}
	return res, nil
}

// computePrefix runs the mobile part. Returns a nil request when the
// job completed locally.
func (c *Client) computePrefix(jobID int, cut jobCut, input *tensor.Tensor) (*jobRequest, *JobResult, error) {
	start := time.Now()
	req, res, err := c.runPrefix(jobID, cut, input)
	if err == nil {
		c.obsv.span(TrackMobile, SpanLocalCompute, jobID, start, time.Now())
	}
	return req, res, err
}

// runPrefix executes the mobile side of one job on the engine and
// returns the job frame left to ship, nil when the job completed
// locally; the connected client and the fault-tolerant runner's local
// fallback (which has no live transport) share it. Whether the job is a
// line cut is a property of the boundary, not of how the cut was
// written: a set whose boundary is a unit exit is the line job it is
// (JobResult.Cut = the unit), anything else a true set (JobResult.Cut =
// -1). A job with nothing left to ship — the fallback's whole model —
// stops at the logits (runSpan, runSide) and takes its class off them,
// as the server does.
func (lp *lineProgram) runPrefix(jobID int, cut jobCut, input *tensor.Tensor) (*jobRequest, *JobResult, error) {
	g := lp.model.Graph()
	res := &JobResult{JobID: jobID, Cut: cut.unit}
	var out *tensor.Tensor // the activation at exit(res.Cut)
	var set *jobRequest    // the boundary of a set cut
	start := time.Now()
	switch {
	case cut.nodes == nil:
		if cut.unit < 0 || cut.unit >= len(lp.units) {
			return nil, nil, fmt.Errorf("runtime: cut %d out of range [0,%d)", cut.unit, len(lp.units))
		}
		var err error
		if out, err = lp.runSpan(-1, cut.unit, 1, input); err != nil {
			return nil, nil, err
		}
	case len(cut.nodes) == 0:
		return nil, nil, fmt.Errorf("runtime: empty cut set")
	default:
		for _, id := range cut.nodes {
			if id < 0 || id >= g.Len() {
				return nil, nil, fmt.Errorf("runtime: cut node %d out of range [0,%d)", id, g.Len())
			}
		}
		acts := map[int]*tensor.Tensor{}
		mobile, prefix, err := lp.runSide(acts, input, cut.nodes)
		if err != nil {
			return nil, nil, err
		}
		// Boundary = mobile nodes with at least one remote consumer.
		set = &jobRequest{JobID: uint32(jobID), Cut: -1}
		for _, id := range prefix {
			for _, s := range g.Succs(id) {
				if !mobile[s] {
					set.Pairs = append(set.Pairs, boundary{Node: id, T: acts[id]})
					break
				}
			}
		}
		if res.Cut = lp.cutOf(set.Pairs); res.Cut >= 0 {
			out = acts[lp.exit(res.Cut)]
		}
	}
	res.MobileMs = float64(time.Since(start).Nanoseconds()) / 1e6
	switch res.Cut {
	case -1:
		return set, res, nil
	case len(lp.units) - 1:
		res.Class = engine.SoftmaxArgmaxBatch(out, 1, 0)
		res.Done = time.Now()
		return nil, res, nil
	}
	return lp.lineJob(jobID, res.Cut, out), res, nil
}

// lineJob is the frame of a job cut after unit cut: one pair, the
// activation t at the unit's exit.
func (lp *lineProgram) lineJob(jobID, cut int, t *tensor.Tensor) *jobRequest {
	req := &jobRequest{JobID: uint32(jobID), Cut: cut}
	req.one[0] = boundary{Node: lp.units[cut].Exit, T: t}
	req.Pairs = req.one[:]
	return req
}

// Report aggregates a pipelined run.
type Report struct {
	// Results holds one entry per job, in JobID order regardless of
	// completion order, so reports are deterministic.
	Results    []*JobResult
	MakespanMs float64
}

// newReport reports results filed by JobID; the makespan is the last
// completion.
func newReport(start time.Time, results []*JobResult) Report {
	rep := Report{Results: results}
	for _, r := range results {
		if ms := float64(r.Done.Sub(start).Nanoseconds()) / 1e6; ms > rep.MakespanMs {
			rep.MakespanMs = ms
		}
	}
	return rep
}

// ftJob is one job's state in the run loop, held by value in schedule
// order. up caches the frame the mobile prefix left at cut, so a retry
// resubmits without recomputing; res carries the prefix timing and
// receives the reply (both reset when a re-plan moves the cut); c is the
// job's request while it is in flight.
type ftJob struct {
	id    int
	cut   jobCut
	input *tensor.Tensor
	up    *jobRequest
	res   *JobResult
	c     *call
	tries int
	done  bool
}

// layout lays out n jobs in seq order, each cut where cutOf says. Plans
// are built by hand too, so seq is checked to name every job ID in
// [0, n) exactly once.
func layout(n int, seq []flowshop.Job, inputs []*tensor.Tensor, cutOf func(job int) jobCut) ([]ftJob, error) {
	if len(inputs) != n {
		return nil, fmt.Errorf("runtime: %d inputs for %d jobs", len(inputs), n)
	}
	jobs := make([]ftJob, n)
	// Until the layout overwrites them, jobs[id].done marks the IDs seen.
	for _, fj := range seq {
		if fj.ID < 0 || fj.ID >= n || jobs[fj.ID].done {
			return nil, fmt.Errorf("runtime: sequence names job %d twice or outside [0,%d)", fj.ID, n)
		}
		jobs[fj.ID].done = true
	}
	for id := range jobs {
		if !jobs[id].done {
			return nil, fmt.Errorf("runtime: sequence is missing job %d", id)
		}
	}
	for k, fj := range seq {
		jobs[k] = ftJob{id: fj.ID, cut: cutOf(fj.ID), input: inputs[fj.ID]}
	}
	return jobs, nil
}

// settle files the result of every finished job under its ID and
// returns the jobs still pending, in order, in jobs' own array.
func settle(jobs []ftJob, results []*JobResult) []ftJob {
	rest := jobs[:0]
	for _, j := range jobs {
		if j.done {
			results[j.id] = j.res
		} else {
			rest = append(rest, j)
		}
	}
	return rest
}

// runJobs is the one run loop: the mobile CPU computes each prefix in
// the order of jobs while the writer streams the frames up and the
// demultiplexer collects the replies, awaited oldest first (§3.1). The
// jobs in flight lie in jobs[head:i], at most window of them; a timeout
// > 0 bounds each awaited reply and, through a watchdog, the whole run.
// A Client's own runs (rec == nil) stop at the next job boundary after
// a transport error and return a shed reply as a result. A Runner's
// attempt adds two steps: a shed job is finished locally when its reply
// is collected, and the unsubmitted jobs may be re-planned between
// windows. lost reports a transport failure or a missed deadline, after
// marking done the replies already delivered; any other err is fatal.
func (c *Client) runJobs(jobs []ftJob, window int, timeout time.Duration, rec *recovery) (lost bool, err error) {
	if timeout > 0 {
		// If the whole run overruns its budget (a stalled link can block
		// the writer, fill the send queue and wedge enqueue), closing the
		// conn fails the client and unblocks every waiter.
		wd := time.AfterFunc(time.Duration(len(jobs)+2)*timeout, func() { c.Close() })
		defer wd.Stop()
	}
	head, flying := 0, 0
	for i := 0; ; i++ {
		if i == len(jobs) {
			window = 1 // after the last job, collect every reply
		}
		full := flying >= window
		for ; flying >= window; head++ {
			j := &jobs[head]
			if j.done {
				continue // finished on the mobile engine, never sent
			}
			if err := c.awaitTimeout(j.c, timeout); err != nil {
				harvest(jobs[head:i])
				return true, err
			}
			flying--
			if j.res.Shed && rec != nil {
				// Resubmitting a shed job would defeat admission control.
				if err := rec.r.finishLocal(j, true, &rec.ft); err != nil {
					return false, err
				}
				continue
			}
			j.done = true
		}
		if i == len(jobs) {
			return false, nil
		}
		if full && rec != nil {
			// Between windows the link has fresh samples; any trigger may
			// fire again later, rate-limited by ReplanMinInterval.
			rec.r.maybeReplan(c, jobs[i:], &rec.rs, &rec.nominal, &rec.ft)
		}
		j := &jobs[i]
		if j.res == nil {
			if rec == nil {
				if err := c.Err(); err != nil {
					return true, err // uplink or downlink already failed
				}
			}
			if j.up, j.res, err = c.computePrefix(j.id, j.cut, j.input); err != nil {
				return false, err
			}
		}
		if j.up == nil {
			j.done = true // fully local cut, classified by runPrefix
			continue
		}
		if j.tries > 0 { // only a Runner's later attempts resubmit
			rec.ft.RetriedJobs++
			c.obsv.JobsRetried.Inc()
		}
		j.tries++
		if j.c, err = c.enqueue(j.res, j.up); err != nil {
			harvest(jobs[head:i])
			return true, err
		}
		flying++
	}
}

// harvest marks done the jobs of a failed connection's window whose
// replies were already delivered, out of order. A shed reply is not
// done: the job never ran.
func harvest(window []ftJob) {
	for k := range window {
		if j := &window[k]; !j.done {
			select {
			case <-j.c.done:
				j.done = j.c.ok && !j.res.Shed
			default:
			}
		}
	}
}

// RunPlan executes a whole plan with full pipelining: jobs are
// computed in schedule order on the mobile CPU while the writer
// goroutine streams completed boundary tensors up the link and the
// demultiplexer collects (possibly out-of-order) replies — the
// two-resource pipeline of §3.1 plus an overlapped cloud stage.
// inputs[i] feeds job i (Plan job IDs index inputs), and the plan's
// Sequence must name every job exactly once. The first error from any
// stage aborts the run promptly: compute stops at the next job boundary
// instead of draining the whole plan.
func (c *Client) RunPlan(p *core.Plan, inputs []*tensor.Tensor) (*Report, error) {
	return c.runAll(layout(len(p.Cuts), p.Sequence, inputs, func(job int) jobCut { return jobCut{unit: p.Cuts[job]} }))
}

// RunGeneralPlan is RunPlan for an Algorithm 3 plan: job j is cut at
// the node set gp.CutNodes[j] and the jobs run in the order of the
// plan's job-level view (core.GeneralPlan.JobSequence), one frame per
// job, pipelined exactly like a line plan.
func (c *Client) RunGeneralPlan(gp *core.GeneralPlan, inputs []*tensor.Tensor) (*Report, error) {
	return c.runAll(layout(len(gp.CutNodes), gp.JobSequence(), inputs, func(job int) jobCut { return setCut(gp.CutNodes[job]) }))
}

// runAll runs the jobs a layout returned, with no window limit and no
// deadline, and reports them.
func (c *Client) runAll(jobs []ftJob, err error) (*Report, error) {
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := c.runJobs(jobs, len(jobs), 0, nil); err != nil {
		return nil, err
	}
	results := make([]*JobResult, len(jobs))
	settle(jobs, results)
	rep := newReport(start, results)
	return &rep, nil
}

// RunBoundaryJobs enqueues one job per boundary tensor at the given
// cut — all in flight at once — and awaits every reply. Unlike
// RunPlan there is no mobile stage: arrivals at the server are paced
// by the uplink alone, as if many devices shared the channel, which
// makes this the server-stage probe of the batching experiment (the
// coalescer sees genuine request concurrency instead of prefix-compute
// spacing). Job i's ID is i; boundary tensors must match the cut's
// exit shape. The cut must be a real offloaded position (not the last
// unit).
func (c *Client) RunBoundaryJobs(cut int, boundaries []*tensor.Tensor) (*Report, error) {
	if cut < 0 || cut >= len(c.units)-1 {
		return nil, fmt.Errorf("runtime: boundary-job cut %d out of range [0,%d)", cut, len(c.units)-1)
	}
	jobs := make([]ftJob, len(boundaries))
	for i, b := range boundaries { // frames preset: no prefix to compute
		jobs[i] = ftJob{id: i, res: &JobResult{JobID: i, Cut: cut}, up: c.lineJob(i, cut, b)}
	}
	return c.runAll(jobs, nil)
}

// CalibrateComm measures upload latency for a ladder of payload sizes
// and fits the paper's linear model t = w0 + w1·s (per-byte form; with
// bandwidth b fixed, w1 = 8/b). The fitted line feeds the scheduler's
// communication estimates. Pings ride the same writer/demultiplexer
// pipeline as inference jobs, one at a time.
func (c *Client) CalibrateComm(sizes []int, rounds int) (regression.Linear, error) {
	if rounds <= 0 {
		rounds = 1
	}
	c.startIO()
	// One point per size, the fastest of its rounds: what a shared host
	// adds to a transmission is only ever extra time, so the minimum is
	// the sample closest to the link.
	xs := make([]float64, len(sizes))
	ys := make([]float64, len(sizes))
	for i, size := range sizes {
		xs[i] = float64(size)
		for r := 0; r < rounds; r++ {
			cl := &call{done: make(chan struct{})}
			c.mu.Lock()
			if c.err != nil {
				err := c.err
				c.mu.Unlock()
				return regression.Linear{}, err
			}
			c.pongs = append(c.pongs, cl)
			c.mu.Unlock()
			select {
			case c.sendQ <- wireMsg{c: cl, ping: size, enq: time.Now()}:
			case <-c.failed:
				return regression.Linear{}, c.Err()
			}
			if err := c.await(cl); err != nil {
				return regression.Linear{}, err
			}
			if r == 0 || cl.rtt < ys[i] {
				ys[i] = cl.rtt
			}
		}
	}
	return regression.FitLinear(xs, ys)
}
