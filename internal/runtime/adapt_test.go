package runtime

import (
	"testing"
	"time"

	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/netsim"
	"dnnjps/internal/nn"
	"dnnjps/internal/obs"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// End-to-end tests for continuous adaptive replanning: scripted
// netsim degradation profiles drive full runner executions. The
// bit-exact golden cut sequence lives in the regression corpus (see
// internal/regression's adapt replay test, which is pure data); these
// tests assert the runtime-level contract — which cuts the replanned
// suffix lands on, that detection fires, and that every job still
// finishes with the fault-free class — in forms robust to wall-clock
// scheduling noise. All names carry "Adapt" for the CI deflake leg
// (go test -run Adapt -count=3).

// The pipe model's curve puts a 128-byte boundary at unit 6, so any
// replan below ~5 Mb/s deterministically moves the suffix to cut 6,
// while 6+ Mb/s favors cuts 0/6 (see the curve in pipeline_test.go).
// Note the client's shaper paces at the nominal channel rate, so the
// injector can only slow the link below the model, never speed it up —
// "recovery" scenarios cap early and lift the cap back to nominal.
//
// The scale divides every pacing sleep, but timer overshoot (~0.1–1 ms
// per paced 4 KiB chunk on a loaded host) stays constant wall time and
// is amplified by 1/scale in the measured channel rate. 0.35 keeps a
// ~16 ms upload's worst-case distortion under ~2x — enough for the
// CUSUM's pre-step baseline to sit clearly above the degraded regime —
// while the tests stay sub-second.
const adaptScale = 0.35

func adaptOpts() RunOptions {
	return RunOptions{
		JobTimeout:        4 * time.Second,
		BackoffBase:       time.Millisecond,
		BackoffMax:        2 * time.Millisecond,
		Window:            2,
		AdaptiveReplan:    true,
		ReplanMinInterval: time.Nanosecond, // tests exercise back-to-back replans
	}
}

// TestAdaptStepDownReplansToLocalCut: the acceptance scenario's shape —
// the uplink is fine for the first uploads, then steps down 8→2 Mb/s
// mid-batch. The estimator must detect the shift (a change point, not
// just drift), the runner must replan the unsubmitted suffix, and the
// replanned jobs must land on the 128-byte cut 6 while the pre-step
// jobs keep their planned cut 3.
func TestAdaptStepDownReplansToLocalCut(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the throughput samples this test asserts on")
	}
	m := pipeModel(t)
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 8, SetupMs: 0}
	// Three ~16 ms uploads pass clean before the cap lands.
	dial := faultyDialer(t, m, 21, adaptScale, func(int) (up, down netsim.FaultSpec) {
		return netsim.FaultSpec{Degrade: netsim.StepDown(55, 2)}, netsim.FaultSpec{}
	})
	curve := profile.BuildCurve(m.Graph(), profile.RaspberryPi4(), profile.CloudGPU(), ch, tensor.Float32)
	met := obs.NewMetrics()
	o := NewObs(obs.NewTracer(0), met)
	r := NewRunner(dial, m, ch, adaptScale, adaptOpts()).WithCurve(curve).WithObs(o)

	const n = 12
	plan := uniformPlan(n, 3)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = pipeInput(i)
	}
	rep, err := r.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, rep, wantClasses(t, m, inputs))
	// The paper's f is on the trace of a Runner's run as it is on a
	// Client's: one local-compute span a job, on the mobile lane.
	prefixes := map[int32]int{}
	for _, sp := range o.Tracer.Spans() {
		if sp.Track == TrackMobile && sp.Name == SpanLocalCompute {
			prefixes[sp.JobID]++
		}
	}
	for id := int32(0); id < n; id++ {
		if prefixes[id] != 1 {
			t.Errorf("job %d: %d local-compute spans, want 1", id, prefixes[id])
		}
	}
	if rep.Replans == 0 {
		t.Fatal("step-down must trigger at least one adaptive replan")
	}
	if rep.ChangePoints == 0 {
		t.Error("a 4x mid-batch step must register as a change point, not drift")
	}
	pre, post, other := 0, 0, 0
	for _, res := range rep.Results {
		switch res.Cut {
		case 3:
			pre++
		case 6:
			post++
		default:
			// At estimates near 1 Mb/s the replanner can legitimately
			// return a MIXED plan: a comm-heavy job or two fills the
			// uplink ahead of the compute-heavy cut-6 majority. Tolerated
			// as long as cut 6 dominates the replanned suffix below.
			other++
		}
	}
	if pre == 0 || post == 0 {
		t.Errorf("cut split pre/post step = %d/%d; want both regimes represented", pre, post)
	}
	if other > post {
		t.Errorf("replanned suffix dominated by unexpected cuts: %d@3 %d@6 %d other", pre, post, other)
	}
	t.Logf("replans=%d changepoints=%d est=%.2f Mb/s cuts: %d@3 %d@6 %d other",
		rep.Replans, rep.ChangePoints, rep.EstimatedMbps, pre, post, other)
	if v := o.ChangePoints.Value(); int(v) != rep.ChangePoints {
		t.Errorf("changepoint counter = %d, report says %d", v, rep.ChangePoints)
	}
	if o.EstMbps.Value() <= 0 {
		t.Errorf("estimated-Mbps gauge never set: %f", o.EstMbps.Value())
	}
	if o.Replans.Value() < int64(rep.Replans) {
		t.Errorf("replan counter = %d < report's %d", o.Replans.Value(), rep.Replans)
	}
}

// TestAdaptStepUpReplansTowardOffload: the inverse shift. The injector
// caps the 8 Mb/s link to 2 from the start and lifts the cap at 220 ms
// channel time. Hysteresis is effectively disabled so the initial
// capped regime (which the estimator seeds on — no change point) does
// NOT replan; the lift then fires an Up change point on the first
// full-rate upload, and that alone must drive the replan back toward
// the offload-heavy plan.
func TestAdaptStepUpReplansTowardOffload(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the throughput samples this test asserts on")
	}
	m := pipeModel(t)
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 8, SetupMs: 0}
	dial := faultyDialer(t, m, 23, adaptScale, func(int) (up, down netsim.FaultSpec) {
		return netsim.FaultSpec{Degrade: netsim.StepUp(220, 2)}, netsim.FaultSpec{}
	})
	curve := profile.BuildCurve(m.Graph(), profile.RaspberryPi4(), profile.CloudGPU(), ch, tensor.Float32)
	opts := adaptOpts()
	opts.ReplanHysteresis = 100 // change-point trigger only
	r := NewRunner(dial, m, ch, adaptScale, opts).WithCurve(curve)

	const n = 12
	plan := uniformPlan(n, 3)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = pipeInput(i)
	}
	rep, err := r.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, rep, wantClasses(t, m, inputs))
	if rep.ChangePoints == 0 {
		t.Error("the lifted cap must register as a change point")
	}
	if rep.Replans == 0 {
		t.Error("recovery must trigger a replan toward offloading")
	}
	if rep.EstimatedMbps <= 2 {
		t.Errorf("final estimate %.2f Mb/s did not rise above the capped rate 2", rep.EstimatedMbps)
	}
	t.Logf("replans=%d changepoints=%d est=%.2f Mb/s", rep.Replans, rep.ChangePoints, rep.EstimatedMbps)
}

// bneckModel is a chain with a cheap 8 KB bottleneck boundary (unit 4)
// ahead of a compute-heavy 64-channel tail: offloading at the
// bottleneck stays optimal down to ~1 Mb/s (G ≈ 66 ms < the ~190 ms
// local tail), and only a collapse below ~0.5 Mb/s sends the plan
// fully local. That keeps fat, measurable uploads flowing through a
// moderate degradation — which is exactly what a second-shift
// regression needs the estimator to observe.
func bneckModel(t testing.TB) *engine.Model {
	t.Helper()
	g := dag.New("bneck")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(3, 32, 32)})
	c1 := g.Add(&nn.Conv2D{LayerName: "conv1", OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, in)
	r1 := g.Add(nn.NewActivation("relu1", nn.ReLU), c1)
	p1 := g.Add(nn.NewMaxPool2D("pool1", 2, 2, 0), r1)
	b := g.Add(&nn.Conv2D{LayerName: "bneck", OutC: 8, KH: 1, KW: 1, Stride: 1, Pad: 0, Bias: true}, p1)
	c3 := g.Add(&nn.Conv2D{LayerName: "conv3", OutC: 64, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, b)
	r3 := g.Add(nn.NewActivation("relu3", nn.ReLU), c3)
	c4 := g.Add(&nn.Conv2D{LayerName: "conv4", OutC: 64, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, r3)
	r4 := g.Add(nn.NewActivation("relu4", nn.ReLU), c4)
	gp := g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, r4)
	fc := g.Add(&nn.Dense{LayerName: "fc", Out: 10, Bias: true}, gp)
	g.Add(nn.NewSoftmax("softmax"), fc)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return engine.Load(g, 99)
}

// TestAdaptTwoStepDegradation is the latch-removal regression: the
// link degrades TWICE inside one batch (8→4 immediately, →0.5 at
// 150 ms channel time). The old runner latched `replanned` after the
// first mid-batch replan, so the second shift was ignored until a
// reconnect; continuous replanning must fire again. On the bottleneck
// model the first replan (est ≈ 4) keeps most jobs offloaded at the
// 8 KB cut, so the collapse to 0.5 is observed on real uploads and the
// second replan prices well below the first regime.
func TestAdaptTwoStepDegradation(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the throughput samples this test asserts on")
	}
	m := bneckModel(t)
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 8, SetupMs: 0}
	dial := faultyDialer(t, m, 29, adaptScale, func(int) (up, down netsim.FaultSpec) {
		return netsim.FaultSpec{Degrade: []netsim.DegradeStep{
			{AfterMs: 0, Mbps: 4},
			{AfterMs: 150, Mbps: 0.5},
		}}, netsim.FaultSpec{}
	})
	curve := profile.BuildCurve(m.Graph(), profile.RaspberryPi4(), profile.CloudGPU(), ch, tensor.Float32)
	r := NewRunner(dial, m, ch, adaptScale, adaptOpts()).WithCurve(curve)

	const n = 14
	plan := uniformPlan(n, 3)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = pipeInput(i)
	}
	rep, err := r.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, rep, wantClasses(t, m, inputs))
	if rep.Reconnects != 0 {
		t.Errorf("Reconnects = %d; both shifts must be handled on the live connection", rep.Reconnects)
	}
	if rep.Replans < 2 {
		t.Fatalf("Replans = %d; a second degradation in the same batch must replan again (latch regression)", rep.Replans)
	}
	if rep.ReplannedMbps >= 2 {
		t.Errorf("last ReplannedMbps = %.2f; the second replan must price near the collapsed 0.5 Mb/s, not the first regime's 4", rep.ReplannedMbps)
	}
	t.Logf("replans=%d changepoints=%d final est=%.2f Mb/s last=%.2f",
		rep.Replans, rep.ChangePoints, rep.EstimatedMbps, rep.ReplannedMbps)
}

// TestAdaptSawtoothStaysStable: repeated fade-and-recover cycles. The
// run must complete correctly whatever the cadence, detection must see
// at least the first fade, and the minimum-interval guard keeps the
// replan count bounded by the window cadence rather than exploding.
func TestAdaptSawtoothStaysStable(t *testing.T) {
	m := pipeModel(t)
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 8, SetupMs: 0}
	dial := faultyDialer(t, m, 31, adaptScale, func(int) (up, down netsim.FaultSpec) {
		return netsim.FaultSpec{Degrade: netsim.Sawtooth(40, 80, 2, 3)}, netsim.FaultSpec{}
	})
	curve := profile.BuildCurve(m.Graph(), profile.RaspberryPi4(), profile.CloudGPU(), ch, tensor.Float32)
	opts := adaptOpts()
	r := NewRunner(dial, m, ch, adaptScale, opts).WithCurve(curve)

	const n = 16
	plan := uniformPlan(n, 3)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = pipeInput(i)
	}
	rep, err := r.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, rep, wantClasses(t, m, inputs))
	if rep.Replans == 0 {
		t.Error("the first fade must trigger a replan")
	}
	// Replans are gated per between-windows check: with Window 2 there
	// are at most n/2 checks, so the count cannot exceed that even with
	// a nanosecond min-interval.
	if rep.Replans > n/2 {
		t.Errorf("Replans = %d exceeds the %d between-window checks — the cut is thrashing", rep.Replans, n/2)
	}
	t.Logf("replans=%d changepoints=%d est=%.2f Mb/s", rep.Replans, rep.ChangePoints, rep.EstimatedMbps)
}

// TestAdaptSlowRampReplansByHysteresis: a gradual 8→2 fade with no
// sharp edge. Detection may or may not call it a change point (the
// CUSUM is tuned for steps), but the hysteresis trigger must still
// replan once the EWMA diverges ±30% from the plan's bandwidth — the
// estimate, not the detector, is the safety net on slow fades.
func TestAdaptSlowRampReplansByHysteresis(t *testing.T) {
	m := pipeModel(t)
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 8, SetupMs: 0}
	dial := faultyDialer(t, m, 37, adaptScale, func(int) (up, down netsim.FaultSpec) {
		return netsim.FaultSpec{Degrade: netsim.Ramp(30, 400, 7, 2, 12)}, netsim.FaultSpec{}
	})
	curve := profile.BuildCurve(m.Graph(), profile.RaspberryPi4(), profile.CloudGPU(), ch, tensor.Float32)
	r := NewRunner(dial, m, ch, adaptScale, adaptOpts()).WithCurve(curve)

	const n = 14
	plan := uniformPlan(n, 3)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = pipeInput(i)
	}
	rep, err := r.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, rep, wantClasses(t, m, inputs))
	if rep.Replans == 0 {
		t.Error("a ramp past the hysteresis band must replan even without a clean change point")
	}
	if rep.EstimatedMbps >= ch.UplinkMbps {
		t.Errorf("final estimate %.2f did not track the fade below nominal %.0f", rep.EstimatedMbps, ch.UplinkMbps)
	}
	t.Logf("replans=%d changepoints=%d est=%.2f Mb/s", rep.Replans, rep.ChangePoints, rep.EstimatedMbps)
}

// TestAdaptEstimatorThreadsAcrossAttempts: the estimator outlives
// individual connections — after a forced disconnect the reconnect's
// samples land in the same estimator, so the report's sample-bearing
// estimate reflects the whole run, not the last attempt.
//
// The disconnect fires halfway through the second cut-3 frame. The
// runner's window of 2 uploads jobs 0 and 1 at their planned cut before
// its first replan decision, so that byte count is always reached —
// whatever the replan (2 Mb/s from t = 0) then does to the cuts of the
// jobs behind them.
func TestAdaptEstimatorThreadsAcrossAttempts(t *testing.T) {
	m := pipeModel(t)
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 8, SetupMs: 0}
	const cut = 3
	frame := RequestWireBytes(m.Graph().Node(profile.LineView(m.Graph())[cut].Exit).OutShape)
	dial := faultyDialer(t, m, 41, adaptScale, func(i int) (up, down netsim.FaultSpec) {
		up = netsim.FaultSpec{Degrade: netsim.StepDown(0, 2)}
		if i == 0 {
			up.DisconnectAfterBytes = int64(frame + frame/2)
		}
		return up, netsim.FaultSpec{}
	})
	curve := profile.BuildCurve(m.Graph(), profile.RaspberryPi4(), profile.CloudGPU(), ch, tensor.Float32)
	opts := adaptOpts()
	opts.JobTimeout = 2 * time.Second
	opts.MaxReconnects = 4
	r := NewRunner(dial, m, ch, adaptScale, opts).WithCurve(curve)

	const n = 12
	plan := uniformPlan(n, cut)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = pipeInput(i)
	}
	rep, err := r.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, rep, wantClasses(t, m, inputs))
	if rep.Reconnects == 0 {
		t.Error("forced disconnect must cause a reconnect")
	}
	if rep.EstimatedMbps <= 0 {
		t.Errorf("estimate lost across attempts: %.2f", rep.EstimatedMbps)
	}
	if rep.EstimatedMbps > 4 {
		t.Errorf("estimate %.2f Mb/s ignores the capped 2 Mb/s link", rep.EstimatedMbps)
	}
}
