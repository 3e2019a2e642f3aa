package runtime

import (
	"time"
)

// Cross-connection micro-batching under a window (WithBatching). The
// default server needs none of this: it groups the fully connected tail
// of the jobs already waiting at the moment a worker picks them up
// (fleetScheduler.takeLocked), with no window to wait out. What the
// window adds is batching of the whole suffix, convolutions included,
// and of jobs that are not there yet — at the price of holding every
// job for it. The coalescer sits between the
// fleet scheduler's dispatcher and the global worker pool: admitted
// infer requests from EVERY connection are grouped by cut layer, a
// group is held open for at most the batching window (or until it
// reaches the max size), and the whole group executes as ONE batched
// suffix pass — each conv/dense layer of the suffix runs a single
// widened SGEMM instead of one narrow GEMM per job. Replies fan back
// out per job to the owning connection's write mutex.
//
// Grouping by cut is grouping by shape: the server holds one model, so
// the (cut, model) group key of the design collapses to the cut index,
// and a cut determines the boundary tensor shape. Theorem 5.3
// concentrates a plan's cuts on at most two adjacent layers, so fleet
// traffic against one model clusters into at most two batchable shapes
// per plan — the best case for this coalescer: the more clients
// offload concurrently, the fuller the groups get. Each member is still
// checked on its own before the group is packed, so one malformed
// request cannot poison its group's valid members, and a bad member
// fails only its own connection (see fleetScheduler.run).

// batchGroup accumulates same-cut jobs until flush. Members may come
// from different connections and tenants.
type batchGroup struct {
	cut      uint32
	jobs     []pendingJob
	deadline time.Time // recv of the first member + window
}

// coalescer owns the server-wide batch state. All grouping runs on a
// single goroutine (run), which hands flushed groups to the global
// worker pool — no shared mutable state and no timer races with the
// per-connection read loops.
type coalescer struct {
	window time.Duration
	max    int
	reqs   chan pendingJob // scheduler dispatcher -> coalescer; closed on shutdown
	done   chan struct{}   // closed when run exits (all groups flushed)
}

// newCoalescer starts the coalescer; dispatch hands a group that has
// just been flushed to the pool, and may block.
func newCoalescer(window time.Duration, max int, dispatch func(jobs []pendingJob, flushed time.Time)) *coalescer {
	c := &coalescer{
		window: window,
		max:    max,
		reqs:   make(chan pendingJob, max),
		done:   make(chan struct{}),
	}
	go c.run(dispatch)
	return c
}

// submit hands one admitted request to the coalescer. It may block
// when the pool is saturated — that is the backpressure chain the
// admission controller's queue depth measures.
func (c *coalescer) submit(pj pendingJob) {
	c.reqs <- pj
}

// finish signals shutdown and waits until every pending group has been
// flushed into the pool. The caller must close the pool only after
// finish returns (the coalescer is a pool sender), and must be the
// only submitter when it calls finish, exactly once.
func (c *coalescer) finish() {
	close(c.reqs)
	<-c.done
}

// run is the coalescer goroutine: it accumulates groups, flushes each
// on max size or window expiry, and drains everything on shutdown.
func (c *coalescer) run(dispatch func(jobs []pendingJob, flushed time.Time)) {
	defer close(c.done)
	groups := make(map[uint32]*batchGroup)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	flush := func(g *batchGroup) {
		delete(groups, g.cut)
		dispatch(g.jobs, time.Now())
	}
	for {
		if armed && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		armed = false
		var tc <-chan time.Time
		if len(groups) > 0 {
			var earliest time.Time
			for _, g := range groups {
				if earliest.IsZero() || g.deadline.Before(earliest) {
					earliest = g.deadline
				}
			}
			timer.Reset(time.Until(earliest))
			armed = true
			tc = timer.C
		}
		select {
		case pj, ok := <-c.reqs:
			if !ok {
				// Shutdown: flush every open group, oldest deadline first,
				// so in-flight jobs still get replies (graceful drain).
				for len(groups) > 0 {
					var oldest *batchGroup
					for _, g := range groups {
						if oldest == nil || g.deadline.Before(oldest.deadline) {
							oldest = g
						}
					}
					flush(oldest)
				}
				return
			}
			g := groups[pj.req.Cut]
			if g == nil {
				g = &batchGroup{cut: pj.req.Cut, deadline: time.Now().Add(c.window)}
				groups[pj.req.Cut] = g
			}
			g.jobs = append(g.jobs, pj)
			if len(g.jobs) >= c.max {
				flush(g)
			}
		case now := <-tc:
			armed = false
			for _, g := range groups {
				if !g.deadline.After(now) {
					flush(g)
				}
			}
		}
	}
}
