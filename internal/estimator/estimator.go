// Package estimator provides the client-side online link estimator
// behind continuous adaptive replanning: a half-life-parameterized
// EWMA over per-upload uplink throughput, plus a CUSUM change-point
// detector that distinguishes a genuine bandwidth regime shift from
// transient jitter. The runtime feeds it the shaper's ground-truth
// byte/duration samples; the fault-tolerant runner polls it between
// pipeline windows and re-plans the remaining jobs (core.Replan) when
// the estimate has genuinely moved. A cumulative expected/measured
// ratio cannot do this job: its early fast samples dilute a late
// degradation indefinitely.
//
// The detector works on relative residuals against the current EWMA:
// r = (x - est)/est. Bounded jitter of amplitude a < Drift can never
// accumulate (each |r| stays inside the per-sample dead band), while a
// regime shift leaves est anchored at the old level for a few samples
// — half-life permitting — so |r| ≈ the relative shift and the CUSUM
// crosses Threshold within one or two samples. On detection the
// estimate snaps to the triggering sample (history from the dead
// regime is discarded) and the accumulators reset, so each scripted
// DegradeStep transition fires exactly once.
package estimator

import (
	"math"
	"sync"
)

// Config parameterizes the estimator. The zero value of any field
// falls back to the DefaultConfig value, so Config{} is usable.
type Config struct {
	// HalfLifeMs is the EWMA half-life over channel time for the
	// throughput estimate: a sample covering d ms of link occupancy
	// carries weight 1 - 0.5^(d/HalfLifeMs). Longer half-lives smooth
	// harder and leave the detector a wider window to catch a shift
	// before the EWMA absorbs it.
	HalfLifeMs float64
	// Drift is the CUSUM per-sample dead band k, in relative units:
	// residuals within ±Drift of the current estimate accumulate no
	// evidence. Set it above the link's natural jitter amplitude.
	Drift float64
	// Threshold is the CUSUM decision threshold h, in accumulated
	// relative units: evidence past the dead band sums until it
	// crosses Threshold, which declares a change point.
	Threshold float64
	// Warmup is the number of throughput samples folded in before the
	// detector arms (the first samples of a connection establish the
	// baseline and must not count as evidence against themselves).
	Warmup int
	// Record retains every accepted upload sample so the stream can be
	// dumped as a ReplayTrace (the regression corpus format). Off by
	// default — recording grows memory linearly with the run.
	Record bool `json:"-"`
}

// DefaultConfig returns the defaults the zero Config maps to: a 250 ms
// half-life, 15% dead band against jitter, and a 0.5 decision
// threshold — a clean 12→2 Mb/s step (residual ≈ −0.83) fires on its
// second degraded sample, while ±10% jitter never accumulates.
func DefaultConfig() Config {
	return Config{
		HalfLifeMs: 250,
		Drift:      0.15,
		Threshold:  0.5,
		Warmup:     2,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.HalfLifeMs <= 0 {
		c.HalfLifeMs = def.HalfLifeMs
	}
	if c.Drift <= 0 {
		c.Drift = def.Drift
	}
	if c.Threshold <= 0 {
		c.Threshold = def.Threshold
	}
	if c.Warmup <= 0 {
		c.Warmup = def.Warmup
	}
	return c
}

// Direction classifies a change point.
type Direction int

const (
	// Down means throughput shifted below the tracked regime.
	Down Direction = iota
	// Up means throughput shifted above the tracked regime.
	Up
)

func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// ChangePoint records one detected regime shift.
type ChangePoint struct {
	// Sample is the 0-based index of the upload sample that crossed
	// the threshold.
	Sample int
	// Direction is the shift's sign.
	Direction Direction
	// FromMbps is the EWMA estimate the moment before detection (the
	// dead regime's level); ToMbps is the estimate after the snap (the
	// triggering sample's throughput).
	FromMbps, ToMbps float64
}

// Estimator is the online link estimator. All methods are safe for
// concurrent use: the client's writer goroutine feeds uploads and the
// runner reads between windows.
type Estimator struct {
	cfg Config

	mu sync.Mutex
	// Throughput EWMA + CUSUM state.
	est     float64 // Mb/s, 0 until the first sample
	samples int
	sPos    float64 // evidence the rate shifted up
	sNeg    float64 // evidence the rate shifted down
	cps     []ChangePoint
	// Recorded sample stream (cfg.Record only).
	rec []ReplaySample
}

// New builds an estimator; zero Config fields take defaults.
func New(cfg Config) *Estimator {
	return &Estimator{cfg: cfg.withDefaults()}
}

// Config returns the (default-filled) configuration in force.
func (e *Estimator) Config() Config { return e.cfg }

// AddUpload folds one completed upload of the given wire size and
// channel-time duration into the throughput estimate. It returns the
// change point this sample triggered, if any. Degenerate samples —
// non-positive size or duration, NaN or Inf — are rejected without
// touching the estimate, so a poisoned measurement can never make the
// estimate non-finite. Safe on a nil receiver (a no-op), so the client
// hot path pays one branch when no estimator is attached.
func (e *Estimator) AddUpload(bytes int, durMs float64) (ChangePoint, bool) {
	if e == nil {
		return ChangePoint{}, false
	}
	if bytes <= 0 || durMs <= 0 || math.IsNaN(durMs) || math.IsInf(durMs, 0) {
		return ChangePoint{}, false
	}
	mbps := float64(bytes) * 8 / (durMs * 1000) // bytes over ms → Mb/s
	if mbps <= 0 || math.IsNaN(mbps) || math.IsInf(mbps, 0) {
		return ChangePoint{}, false
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.Record {
		e.rec = append(e.rec, ReplaySample{Bytes: bytes, DurMs: durMs})
	}
	idx := e.samples
	e.samples++
	if idx < e.cfg.Warmup {
		// Warmup seeds the baseline with a plain running mean rather
		// than the EWMA: a short upload's EWMA weight is tiny against
		// the half-life (a 16 ms sample at a 250 ms half-life carries
		// ~4%), so seeding from the first sample alone would pin the
		// estimate to that one sample's noise for dozens of samples —
		// enough to trip a divergence-based replanner on a healthy link.
		e.est += (mbps - e.est) / float64(idx+1)
		return ChangePoint{}, false
	}

	// Residual against the estimate BEFORE folding this sample in:
	// under steady jitter est tracks the mean so |r| stays inside the
	// dead band; right after a shift est still holds the old level so
	// r carries the full relative jump.
	prev := e.est
	r := (mbps - prev) / prev
	w := 1 - math.Pow(0.5, durMs/e.cfg.HalfLifeMs)
	e.est += w * (mbps - e.est)

	if idx < e.cfg.Warmup {
		return ChangePoint{}, false
	}
	e.sPos = math.Max(0, e.sPos+r-e.cfg.Drift)
	e.sNeg = math.Max(0, e.sNeg-r-e.cfg.Drift)
	var dir Direction
	switch {
	case e.sNeg > e.cfg.Threshold:
		dir = Down
	case e.sPos > e.cfg.Threshold:
		dir = Up
	default:
		return ChangePoint{}, false
	}
	cp := ChangePoint{Sample: idx, Direction: dir, FromMbps: prev, ToMbps: mbps}
	// Snap: the dead regime's history is evidence about a link that no
	// longer exists. Restarting from the triggering sample is what
	// lets the replanner price the new regime immediately instead of
	// waiting out the EWMA's convergence lag.
	e.est = mbps
	e.sPos, e.sNeg = 0, 0
	e.cps = append(e.cps, cp)
	return cp, true
}

// Mbps returns the current throughput estimate and how many samples
// are behind it (0 samples → estimate 0). Nil-safe.
func (e *Estimator) Mbps() (mbps float64, samples int) {
	if e == nil {
		return 0, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.est, e.samples
}

// Samples snapshots the recorded upload stream (empty unless the
// estimator was built with Config.Record). Replaying it through a
// fresh estimator under the same config reproduces the change points
// exactly — that is the regression corpus contract. Nil-safe.
func (e *Estimator) Samples() []ReplaySample {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]ReplaySample(nil), e.rec...)
}

// ChangePoints snapshots every change point detected so far, oldest
// first. Nil-safe.
func (e *Estimator) ChangePoints() []ChangePoint {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]ChangePoint(nil), e.cps...)
}
