package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/engine"
	"dnnjps/internal/estimator"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// RunOptions are the fault-tolerance knobs of a Runner. The zero value
// is usable, but only JobTimeout, BackoffBase, Window, ReplanMinInterval
// and ReplanHysteresis take their DefaultRunOptions value when left at
// zero. MaxReconnects 0 means no redial at all (DefaultRunOptions has
// 4), a BackoffMax under BackoffBase is raised to it (the backoff does
// not grow), Seed is used as given, and the remaining fields are off at
// zero.
type RunOptions struct {
	// JobTimeout is the wall-clock deadline for each awaited reply
	// (measured from when the runner starts waiting on that job, so it
	// bounds per-job incremental progress, not queue depth).
	JobTimeout time.Duration
	// MaxReconnects bounds how many times the runner redials after a
	// failed or timed-out attempt before degrading to local execution.
	MaxReconnects int
	// BackoffBase/BackoffMax shape the capped exponential backoff
	// between reconnects; the actual sleep is jittered uniformly over
	// [backoff/2, backoff] to avoid thundering-herd redials.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter RNG (deterministic retries in tests).
	Seed int64
	// Window is how many jobs may be in flight before the runner
	// pauses to collect replies — the pipelining depth, and also the
	// cadence of the checks that trigger re-planning.
	Window int
	// AdaptiveReplan turns on link-degradation replanning from the
	// online estimator (internal/estimator): every completed upload
	// feeds a half-life EWMA with CUSUM change-point detection, and
	// between windows the runner re-plans the unsubmitted suffix
	// whenever a change point fired or the estimate diverged from the
	// plan's bandwidth by more than ReplanHysteresis — as many times as
	// the link shifts, rate-limited by ReplanMinInterval. Requires
	// Runner.WithCurve.
	AdaptiveReplan bool
	// ReplanMinInterval is the minimum wall-clock time between
	// consecutive replans of the same kind — the anti-thrash guard.
	// Zero takes the default; tests that need back-to-back replans set
	// it to 1ns.
	ReplanMinInterval time.Duration
	// ReplanHysteresis is the relative divergence between the
	// estimator's bandwidth estimate and the bandwidth the current plan
	// was priced at that triggers an adaptive replan without a change
	// point — e.g. 0.3 means "replan when the estimate moved ±30%".
	// Zero takes the default. Only read when AdaptiveReplan is set.
	ReplanHysteresis float64
	// BackpressureThreshold re-plans the remaining jobs toward local
	// compute when the fraction of replies carrying the server's
	// backpressure flag (see Client.ServerPressure) reaches it — e.g.
	// 0.5 means "re-plan once half the replies say the cloud queue is
	// past its hint watermark". The replan surcharges every offloaded
	// cut with the observed server queue wait (core.ReplanWithHint).
	// Zero disables it. Requires Runner.WithCurve.
	BackpressureThreshold float64
	// NoLocalFallback makes a persistent uplink failure a hard error
	// instead of finishing the remaining jobs on the mobile engine.
	NoLocalFallback bool
}

// DefaultRunOptions returns the recommended options; RunOptions says
// which of them a zero field takes.
func DefaultRunOptions() RunOptions {
	return RunOptions{
		JobTimeout:        5 * time.Second,
		MaxReconnects:     4,
		BackoffBase:       50 * time.Millisecond,
		BackoffMax:        2 * time.Second,
		Seed:              1,
		Window:            8,
		ReplanMinInterval: 50 * time.Millisecond,
		ReplanHysteresis:  0.3,
	}
}

// FTReport is a Report plus the recovery actions the runner took.
type FTReport struct {
	Report
	// Reconnects counts redials after the initial connection.
	Reconnects int
	// RetriedJobs counts job resubmissions (a job retried twice counts
	// twice).
	RetriedJobs int
	// Replans counts mid-run re-planning events; ReplannedMbps is the
	// bandwidth estimate behind the most recent one (0 when none).
	Replans       int
	ReplannedMbps float64
	// LocalFallbackJobs counts jobs that finished on the mobile engine
	// after the uplink was given up on.
	LocalFallbackJobs int
	// ShedJobs counts jobs the server's admission control refused and
	// the runner finished on the mobile engine instead.
	ShedJobs int
	// HintReplans counts re-planning events triggered by the server's
	// backpressure hints (a subset of replan activity distinct from
	// Replans, which counts link-degradation replans).
	HintReplans int
	// ChangePoints counts the bandwidth regime shifts the online
	// estimator detected, and EstimatedMbps is its final uplink
	// estimate (both 0 unless AdaptiveReplan was enabled).
	ChangePoints  int
	EstimatedMbps float64
	// ReplaySamples is the estimator's recorded upload stream, in
	// arrival order (nil unless AdaptiveReplan was enabled) — the raw
	// material of a committed estimator.ReplayTrace.
	ReplaySamples []estimator.ReplaySample
}

// Runner executes plans fault-tolerantly on top of the pipelined
// client. Where a bare Client fails the whole RunPlan on the first
// transport error, the Runner owns the connection lifecycle: it
// redials with capped exponential backoff, resubmits only the jobs
// that never got a reply, re-plans the remaining jobs when the online
// estimator says the link shifted, and — once the uplink is
// hopeless — finishes the outstanding suffix on the local engine
// (the full-local partition x = L), so a RunPlan returns complete,
// correct results for every fault short of the device itself dying.
// See DESIGN.md "Failure model & recovery" for the state machine.
type Runner struct {
	lineProgram
	dial  func() (net.Conn, error)
	ch    netsim.Channel
	scale float64
	opts  RunOptions
	curve *profile.Curve
	obsv  *Obs // never nil (see orZero)
}

// NewRunner builds a fault-tolerant runner. dial is invoked for the
// initial connection and every reconnect; it should return a fresh
// transport to the same server (wrap it in netsim fault injectors to
// test recovery). timeScale compresses channel time exactly as in
// NewClient.
func NewRunner(dial func() (net.Conn, error), m *engine.Model, ch netsim.Channel, timeScale float64, opts RunOptions) *Runner {
	def := DefaultRunOptions()
	if opts.JobTimeout <= 0 {
		opts.JobTimeout = def.JobTimeout
	}
	if opts.MaxReconnects < 0 {
		opts.MaxReconnects = 0
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = def.BackoffBase
	}
	if opts.BackoffMax < opts.BackoffBase {
		opts.BackoffMax = opts.BackoffBase
	}
	if opts.Window <= 0 {
		opts.Window = def.Window
	}
	if opts.ReplanMinInterval <= 0 {
		opts.ReplanMinInterval = def.ReplanMinInterval
	}
	if opts.ReplanHysteresis <= 0 {
		opts.ReplanHysteresis = def.ReplanHysteresis
	}
	return &Runner{
		lineProgram: newLineProgram(m),
		dial:        dial,
		ch:          ch,
		scale:       timeScale,
		opts:        opts,
		obsv:        new(Obs),
	}
}

// WithCurve attaches the profiled cut curve re-planning needs (the
// runner reprices it at the measured bandwidth). Returns r.
func (r *Runner) WithCurve(c *profile.Curve) *Runner {
	r.curve = c
	return r
}

// WithObs attaches a tracing + metrics bundle; the runner records its
// recovery events (redial, backoff, replan, local-fallback) and passes
// the bundle on to every client it builds; nil detaches it. Returns r
// for chaining.
func (r *Runner) WithObs(o *Obs) *Runner {
	r.obsv = orZero(o)
	return r
}

// RunPlan executes the plan to completion through every configured
// recovery layer. It returns an error only for non-recoverable
// problems: bad arguments, engine failures, or — with NoLocalFallback —
// a dead uplink.
func (r *Runner) RunPlan(p *core.Plan, inputs []*tensor.Tensor) (*FTReport, error) {
	return r.run(layout(len(p.Cuts), p.Sequence, inputs, func(job int) jobCut { return jobCut{unit: p.Cuts[job]} }))
}

// RunGeneralPlan is RunPlan for an Algorithm 3 plan, in the order of
// its job-level view: deadlines, redial-and-resubmit (the cached
// boundary set is reused), shed and full-local fallback hold for set
// jobs through the same loop. Re-planning is defined for *core.Plan
// only, so a runner configured to re-plan refuses the plan outright.
func (r *Runner) RunGeneralPlan(gp *core.GeneralPlan, inputs []*tensor.Tensor) (*FTReport, error) {
	if r.opts.AdaptiveReplan || r.opts.BackpressureThreshold > 0 {
		return nil, fmt.Errorf("runtime: RunGeneralPlan cannot re-plan a general-structure plan: " +
			"unset AdaptiveReplan and BackpressureThreshold")
	}
	return r.run(layout(len(gp.CutNodes), gp.JobSequence(), inputs, func(job int) jobCut { return setCut(gp.CutNodes[job]) }))
}

// recovery is one run's state across a Runner's connection attempts;
// handed to the run loop (Client.runJobs), it adds the Runner's steps.
type recovery struct {
	r       *Runner
	ft      FTReport
	rs      replanState
	nominal netsim.Channel
}

// run drives the jobs a layout returned through the recovery loop: each
// attempt runs the pending ones on a fresh connection with the Runner's
// window and deadline, and only engine/model errors are fatal.
func (r *Runner) run(jobs []ftJob, err error) (*FTReport, error) {
	if err != nil {
		return nil, err
	}
	start := time.Now()
	results := make([]*JobResult, len(jobs))
	// The replan bookkeeping — and with AdaptiveReplan the estimator
	// itself — outlives individual connection attempts: samples and
	// rate-limit state carry across redials.
	rec := &recovery{r: r, rs: replanState{planMbps: r.ch.UplinkMbps}, nominal: r.ch}
	if r.opts.AdaptiveReplan {
		rec.rs.est = estimator.New(estimator.Config{Record: true})
	}
	ft := &rec.ft
	rng := rand.New(rand.NewSource(r.opts.Seed))
	backoff := r.opts.BackoffBase

	for attempt := 0; len(jobs) > 0 && attempt <= r.opts.MaxReconnects; attempt++ {
		if attempt > 0 {
			ft.Reconnects++
			r.obsv.Reconnects.Inc()
			jitter := time.Duration(rng.Int63n(int64(backoff/2) + 1))
			sleepStart := time.Now()
			time.Sleep(backoff/2 + jitter)
			r.obsv.span(TrackRunner, SpanBackoff, -1, sleepStart, time.Now())
			if backoff *= 2; backoff > r.opts.BackoffMax {
				backoff = r.opts.BackoffMax
			}
		}
		dialStart := time.Now()
		conn, err := r.dial()
		r.obsv.span(TrackRunner, SpanRedial, -1, dialStart, time.Now())
		if err != nil {
			continue // dial failures consume an attempt and back off
		}
		cl := NewClient(conn, r.model, rec.nominal, r.scale).WithObs(r.obsv).WithEstimator(rec.rs.est)
		lost, err := cl.runJobs(jobs, r.opts.Window, r.opts.JobTimeout, rec)
		cl.Close()
		// Wait for the demux goroutine to exit: once it has, no straggler
		// reply from this attempt can write into a JobResult that the next
		// attempt (or the local fallback) is about to reuse.
		cl.drainReader()
		if err != nil && !lost {
			return nil, err
		}
		jobs = settle(jobs, results)
	}

	if len(jobs) > 0 && r.opts.NoLocalFallback {
		return nil, fmt.Errorf("runtime: uplink failed after %d reconnects with %d/%d jobs unfinished",
			ft.Reconnects, len(jobs), len(results))
	}
	// Graceful degradation: the remaining suffix runs fully local,
	// classes identical to a remote finish.
	for k := range jobs {
		if err := r.finishLocal(&jobs[k], false, ft); err != nil {
			return nil, err
		}
	}
	settle(jobs, results)
	ft.Report = newReport(start, results)
	if est := rec.rs.est; est != nil {
		ft.EstimatedMbps, _ = est.Mbps()
		ft.ChangePoints = len(est.ChangePoints())
		ft.ReplaySamples = est.Samples()
	}
	return ft, nil
}

// replanState carries the adaptive-replanning bookkeeping across the
// connection attempts of one RunPlan: the shared estimator (nil unless
// AdaptiveReplan), when each replan kind last fired (the min-interval
// guard), the bandwidth the current plan was priced at (the hysteresis
// base), and how many estimator change points have already been acted
// on.
type replanState struct {
	est      *estimator.Estimator
	last     time.Time // last link-degradation replan (zero = never)
	hintLast time.Time // last backpressure-hint replan
	planMbps float64   // uplink bandwidth the current plan assumes
	cpSeen   int       // change points consumed by earlier replans
}

// finishLocal completes one job on the mobile engine (the full-local
// partition x = L) from its input, whatever its cut was. shed marks a
// job the server's admission control refused, so reports can attribute
// it.
func (r *Runner) finishLocal(j *ftJob, shed bool, ft *FTReport) error {
	fbStart := time.Now()
	_, res, err := r.runPrefix(j.id, jobCut{unit: len(r.units) - 1}, j.input)
	if err != nil {
		return err
	}
	r.obsv.span(TrackRunner, SpanLocalFallback, j.id, fbStart, time.Now())
	r.obsv.LocalFallbacks.Inc()
	res.Shed = shed
	j.res, j.done = res, true
	ft.LocalFallbackJobs++
	if shed {
		ft.ShedJobs++
	}
	return nil
}

// maybeReplan is the between-windows re-planning decision point. Two
// triggers, each under its own ReplanMinInterval rate limit:
//
//   - Estimator path (AdaptiveReplan): replan at the EWMA's absolute
//     bandwidth estimate whenever a change point fired since the last
//     replan, or the estimate diverged from the bandwidth the current
//     plan was priced at by more than ReplanHysteresis. Because the
//     estimate is absolute, repeated replans cannot compound the way
//     ratio-based repricing would.
//   - Hint path (BackpressureThreshold): the server's piggybacked
//     admission-control hints.
func (r *Runner) maybeReplan(cl *Client, rest []ftJob, rs *replanState, nominal *netsim.Channel, ft *FTReport) {
	if r.curve == nil || len(rest) == 0 {
		return
	}
	now := time.Now()
	if rs.est != nil && now.Sub(rs.last) >= r.opts.ReplanMinInterval {
		est, n := rs.est.Mbps()
		cps := rs.est.ChangePoints()
		shifted := len(cps) > rs.cpSeen
		diverged := rs.planMbps > 0 && math.Abs(est-rs.planMbps)/rs.planMbps > r.opts.ReplanHysteresis
		if n >= 2 && (shifted || diverged) {
			r.obsv.event(TrackRunner, EventReplanTrigger, -1, now)
			replanStart := time.Now()
			// The channel model in force at the estimated uplink
			// bandwidth: the setup latency carries over.
			measured := *nominal
			measured.Name += "-est"
			measured.UplinkMbps = est
			if r.replan(rest, measured, core.ServerHint{}, nominal, ft) {
				rs.cpSeen = len(cps)
				rs.planMbps = est
				rs.last = time.Now()
			}
			r.obsv.span(TrackRunner, SpanReplan, -1, replanStart, time.Now())
		}
	}
	if r.opts.BackpressureThreshold > 0 && now.Sub(rs.hintLast) >= r.opts.ReplanMinInterval {
		if rate, queueMs, samples := cl.ServerPressure(); samples >= 2 && rate >= r.opts.BackpressureThreshold {
			replanStart := time.Now()
			if r.replan(rest, *nominal, core.ServerHint{QueueMs: queueMs}, nominal, ft) {
				rs.hintLast = time.Now()
			}
			r.obsv.span(TrackRunner, SpanReplan, -1, replanStart, time.Now())
		}
	}
}

// replan is the one re-planning action behind both triggers: it
// reprices the curve at the measured channel, surcharges every
// offloaded cut with the server's queue-wait hint (zero for the link
// trigger), runs the JPS planner for the still-unsubmitted jobs, and
// rewrites their cuts and order in place. A measured channel that
// differs from *nominal is a link replan: it is adopted, so later
// attempts plan and measure against it. The hint trigger passes
// *nominal itself — the link is fine, only the cloud is saturated — and
// counts separately. Planner errors (a non-positive bandwidth among
// them) leave the old plan standing and report false.
func (r *Runner) replan(rest []ftJob, measured netsim.Channel, hint core.ServerHint, nominal *netsim.Channel, ft *FTReport) bool {
	p2, err := core.ReplanWithHint(r.curve, measured, len(rest), hint)
	if err != nil {
		return false
	}
	applyPlan(rest, p2)
	if measured != *nominal {
		*nominal = measured
		ft.Replans++
		ft.ReplannedMbps = measured.UplinkMbps
	} else {
		ft.HintReplans++
	}
	r.obsv.Replans.Inc()
	return true
}

// applyPlan rewrites the cuts and order of the still-unsubmitted jobs
// in place from a fresh plan, resetting the cached prefix of any job
// whose cut moved.
func applyPlan(rest []ftJob, p2 *core.Plan) {
	for k := range rest {
		if j := &rest[k]; p2.Cuts[k] != j.cut.unit {
			j.cut.unit = p2.Cuts[k]
			j.up, j.res = nil, nil // prefix must be recomputed
		}
	}
	reordered := make([]ftJob, 0, len(rest))
	for _, fj := range p2.Sequence {
		reordered = append(reordered, rest[fj.ID])
	}
	copy(rest, reordered)
}
