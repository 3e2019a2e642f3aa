package runtime

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dnnjps/internal/engine"
	"dnnjps/internal/estimator"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// faultyDialer starts a shared server and returns a dial func whose
// i-th connection is wrapped in a fault injector with the spec chosen
// by specFor(i). Each connection gets its own deterministic RNG stream
// (seed+i) and its own server goroutine.
func faultyDialer(t *testing.T, m *engine.Model, seed int64, scale float64,
	specFor func(i int) (up, down netsim.FaultSpec)) func() (net.Conn, error) {
	t.Helper()
	srv := NewServer(m).WithWorkers(4)
	t.Cleanup(srv.Close)
	var mu sync.Mutex
	dials := 0
	return func() (net.Conn, error) {
		mu.Lock()
		i := dials
		dials++
		mu.Unlock()
		cConn, sConn := net.Pipe()
		go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
		up, down := specFor(i)
		return netsim.Inject(cConn, up, down, seed+int64(i), scale), nil
	}
}

// wantClasses runs every input through a local forward pass.
func wantClasses(t *testing.T, m *engine.Model, inputs []*tensor.Tensor) []int {
	t.Helper()
	want := make([]int, len(inputs))
	for i, in := range inputs {
		out, err := m.Forward(in.Clone())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = engine.Argmax(out)
	}
	return want
}

// checkComplete asserts one result per job with the locally-computed
// class — the "bit-identical under faults" contract.
func checkComplete(t *testing.T, rep *FTReport, want []int) {
	t.Helper()
	if len(rep.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(want))
	}
	for i, r := range rep.Results {
		if r == nil {
			t.Fatalf("job %d has no result", i)
		}
		if r.JobID != i {
			t.Fatalf("Results[%d].JobID = %d; must be sorted by JobID", i, r.JobID)
		}
		if r.Class != want[i] {
			t.Errorf("job %d: class %d, want %d (results must match a fault-free run)", i, r.Class, want[i])
		}
	}
}

// TestRunnerCleanLinkMatchesClient pins the no-fault baseline: with a
// transparent injector the runner must behave exactly like the plain
// pipelined client — no reconnects, no retries, no fallback.
func TestRunnerCleanLinkMatchesClient(t *testing.T) {
	m := pipeModel(t)
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 64, SetupMs: 0}
	dial := faultyDialer(t, m, 1, 1e-3, func(int) (up, down netsim.FaultSpec) { return })
	r := NewRunner(dial, m, ch, 1e-3, RunOptions{})

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
	if rep.Reconnects != 0 || rep.RetriedJobs != 0 || rep.LocalFallbackJobs != 0 || rep.Replans != 0 {
		t.Errorf("clean link took recovery actions: %+v", rep)
	}
}

// TestRunnerRecoversFromDropsAndDisconnect is the tentpole acceptance
// test: 5%% frame drops on the uplink plus one forced mid-run
// disconnect, and every job must still complete with the fault-free
// class while the makespan stays within 1.5x of the no-fault Prop. 4.1
// closed form. The margin exists because recovery overlaps the
// pipeline: while the deadline on a dropped job runs down, the
// still-queued jobs keep uploading and their replies are harvested, so
// a drop costs roughly one backoff plus one re-upload, not a dead
// window.
func TestRunnerRecoversFromDropsAndDisconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	m := pipeModel(t)
	// Same regime as TestRunPlanMatchesProp41: 8 Mb/s, one ~16 ms pacing
	// sleep per 16 KB boundary, uplink-dominated.
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 8, SetupMs: 0}
	const (
		n    = 24
		cut  = 3
		drop = 0.05
	)
	dial := faultyDialer(t, m, 11, 1, func(i int) (up, down netsim.FaultSpec) {
		up = netsim.FaultSpec{DropProb: drop}
		if i == 0 {
			// Force a mid-stream disconnect about six jobs in.
			up.DisconnectAfterBytes = 100_000
		}
		return up, netsim.FaultSpec{}
	})
	r := NewRunner(dial, m, ch, 1, RunOptions{
		JobTimeout:    80 * time.Millisecond,
		MaxReconnects: 10,
		BackoffBase:   4 * time.Millisecond,
		BackoffMax:    16 * time.Millisecond,
		Seed:          3,
		Window:        8,
	})

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
		t.Error("forced disconnect must cause at least one reconnect")
	}
	if rep.LocalFallbackJobs != 0 {
		t.Errorf("%d jobs fell back to local; the link was recoverable", rep.LocalFallbackJobs)
	}

	if raceEnabled {
		return // race instrumentation distorts the timing bound below
	}
	units := profile.LineView(m.Graph())
	boundShape := m.Graph().Node(units[cut].Exit).OutShape
	g := ch.TxMs(RequestWireBytes(boundShape))
	var sumF float64
	for _, res := range rep.Results {
		sumF += res.MobileMs
	}
	f1 := rep.Results[0].MobileMs
	inner := sumF - f1
	if float64(n-1)*g > inner {
		inner = float64(n-1) * g
	}
	predicted := f1 + inner + g
	ratio := rep.MakespanMs / predicted
	t.Logf("measured %.2f ms vs no-fault closed form %.2f ms (ratio %.3f; reconnects %d, retried %d)",
		rep.MakespanMs, predicted, ratio, rep.Reconnects, rep.RetriedJobs)
	if ratio > 1.5 {
		t.Errorf("faulty-link makespan %.2f ms exceeds 1.5x the no-fault closed form %.2f ms (ratio %.3f)",
			rep.MakespanMs, predicted, ratio)
	}
}

// TestRunPlanRejectsBadSequence: a plan's fields are exported, so a
// hand-built Sequence that is not a permutation of its jobs must come
// back as an error naming the bad ID — not a panic, not a short report —
// from the Client and the Runner alike.
func TestRunPlanRejectsBadSequence(t *testing.T) {
	m := testModel(t)
	dial := faultyDialer(t, m, 1, 1e-3, func(int) (up, down netsim.FaultSpec) { return })
	inputs := []*tensor.Tensor{input(0), input(1), input(2)}
	for _, seq := range []struct {
		name string
		ids  []int
		bad  string
	}{
		{"missing", []int{0, 1}, "job 2"},
		{"duplicate", []int{0, 1, 1}, "job 1"},
		{"out of range", []int{0, 1, 3}, "job 3"},
	} {
		plan := uniformPlan(3, 1)
		plan.Sequence = plan.Sequence[:0]
		for _, id := range seq.ids {
			plan.Sequence = append(plan.Sequence, flowshop.Job{ID: id})
		}
		for _, run := range []struct {
			name string
			run  func() (any, error)
		}{
			{"Client", func() (any, error) {
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				return NewClient(conn, m, netsim.WiFi, 1e-3).RunPlan(plan, inputs)
			}},
			{"Runner", func() (any, error) {
				return NewRunner(dial, m, netsim.WiFi, 1e-3, RunOptions{}).RunPlan(plan, inputs)
			}},
		} {
			t.Run(seq.name+"/"+run.name, func(t *testing.T) {
				rep, err := run.run()
				if err == nil || !strings.Contains(err.Error(), seq.bad) {
					t.Fatalf("sequence %v: got report %+v, error %v; want an error naming %s", seq.ids, rep, err, seq.bad)
				}
			})
		}
	}
}

// TestRunnerLocalFallbackOnBlackholeLink: a link that silently eats
// every upload (connects fine, delivers nothing) must exhaust the
// per-job deadlines and reconnect budget, then finish every job on the
// local engine with correct classes.
func TestRunnerLocalFallbackOnBlackholeLink(t *testing.T) {
	m := testModel(t)
	dial := faultyDialer(t, m, 5, 1, func(int) (up, down netsim.FaultSpec) {
		return netsim.FaultSpec{DropProb: 1}, netsim.FaultSpec{}
	})
	r := NewRunner(dial, m, netsim.WiFi, 1e-3, RunOptions{
		JobTimeout:    30 * time.Millisecond,
		MaxReconnects: 2,
		BackoffBase:   time.Millisecond,
		BackoffMax:    2 * time.Millisecond,
	})

	const n = 4
	plan := uniformPlan(n, 1)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = input(i)
	}
	rep, err := r.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, rep, wantClasses(t, m, inputs))
	if rep.LocalFallbackJobs != n {
		t.Errorf("LocalFallbackJobs = %d, want %d (black-hole link)", rep.LocalFallbackJobs, n)
	}
	if rep.Reconnects != 2 {
		t.Errorf("Reconnects = %d, want 2 (the full budget)", rep.Reconnects)
	}
}

// TestRunnerLocalFallbackOnDeadDial: the uplink never even connects.
func TestRunnerLocalFallbackOnDeadDial(t *testing.T) {
	m := testModel(t)
	dial := func() (net.Conn, error) { return nil, fmt.Errorf("connection refused") }
	r := NewRunner(dial, m, netsim.WiFi, 1e-3, RunOptions{
		JobTimeout:    10 * time.Millisecond,
		MaxReconnects: 3,
		BackoffBase:   time.Millisecond,
		BackoffMax:    2 * time.Millisecond,
	})

	const n = 3
	plan := uniformPlan(n, 0)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = input(i * 2)
	}
	rep, err := r.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, rep, wantClasses(t, m, inputs))
	if rep.LocalFallbackJobs != n {
		t.Errorf("LocalFallbackJobs = %d, want %d", rep.LocalFallbackJobs, n)
	}
}

// TestRunnerNoLocalFallbackErrs: with fallback disabled, a dead uplink
// must surface as a clean error — never a hang, never a partial report.
func TestRunnerNoLocalFallbackErrs(t *testing.T) {
	m := testModel(t)
	dial := func() (net.Conn, error) { return nil, fmt.Errorf("connection refused") }
	r := NewRunner(dial, m, netsim.WiFi, 1e-3, RunOptions{
		JobTimeout:      10 * time.Millisecond,
		MaxReconnects:   1,
		BackoffBase:     time.Millisecond,
		BackoffMax:      2 * time.Millisecond,
		NoLocalFallback: true,
	})
	plan := uniformPlan(2, 0)
	rep, err := r.RunPlan(plan, []*tensor.Tensor{input(0), input(1)})
	if err == nil {
		t.Fatalf("dead uplink with NoLocalFallback must error, got report %+v", rep)
	}
}

// TestRunnerReplansOnDegradedLink: the injector throttles the uplink to
// a quarter of the channel model's bandwidth from the first byte, so no
// change point can fire; once the estimate is two uploads old and sits
// past the hysteresis band the runner must re-plan the remaining jobs
// against the repriced curve and still finish everything correctly.
func TestRunnerReplansOnDegradedLink(t *testing.T) {
	m := pipeModel(t)
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 8, SetupMs: 0}
	const scale = 0.05
	dial := faultyDialer(t, m, 9, scale, func(int) (up, down netsim.FaultSpec) {
		return netsim.FaultSpec{Degrade: []netsim.DegradeStep{{AfterMs: 0, Mbps: 2}}}, netsim.FaultSpec{}
	})
	curve := profile.BuildCurve(m.Graph(), profile.RaspberryPi4(), profile.CloudGPU(), ch, tensor.Float32)
	r := NewRunner(dial, m, ch, scale, RunOptions{
		JobTimeout:     2 * time.Second,
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
		Window:         4,
		AdaptiveReplan: true,
	}).WithCurve(curve)

	const n = 10
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
		t.Fatal("a 4x-throttled uplink must trigger a re-plan")
	}
	if rep.ReplannedMbps <= 0 || rep.ReplannedMbps >= ch.UplinkMbps {
		t.Errorf("ReplannedMbps = %.2f, want in (0, %.0f)", rep.ReplannedMbps, ch.UplinkMbps)
	}
}

// TestAdaptiveReplanKeepsDownlinkModel: a link replan adopts the
// estimated uplink bandwidth but must keep the channel's setup latency
// and downlink model — dropping them reprices the curve with free
// replies and leaves every later attempt of the run planning without a
// reply leg.
func TestAdaptiveReplanKeepsDownlinkModel(t *testing.T) {
	m := pipeModel(t)
	ch := netsim.Channel{Name: "pipe", UplinkMbps: 8, SetupMs: 2}.WithDownlink(3)
	curve := profile.BuildCurve(m.Graph(), profile.RaspberryPi4(), profile.CloudGPU(), ch, tensor.Float32)
	r := NewRunner(nil, m, ch, 1, RunOptions{AdaptiveReplan: true}).WithCurve(curve)

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	est := estimator.New(estimator.Config{})
	cl := NewClient(a, m, ch, 1).WithEstimator(est)
	// Two 16 KiB uploads of 32.768 ms each: 4 Mb/s, half the plan's 8 and
	// well past the 30 % hysteresis band.
	for i := 0; i < 2; i++ {
		cl.noteUpload(16384, 32768*time.Microsecond)
	}

	rest := []ftJob{{id: 0, cut: jobCut{unit: 3}}, {id: 1, cut: jobCut{unit: 3}}, {id: 2, cut: jobCut{unit: 3}}}
	nominal, ft := ch, &FTReport{}
	r.maybeReplan(cl, rest, &replanState{est: est, planMbps: ch.UplinkMbps}, &nominal, ft)

	if ft.Replans != 1 {
		t.Fatalf("Replans = %d, want 1 (the estimate is 50 %% under the plan's bandwidth)", ft.Replans)
	}
	if nominal.UplinkMbps < 3.9 || nominal.UplinkMbps > 4.1 {
		t.Errorf("adopted uplink = %.2f Mb/s, want ~4 (half of 8)", nominal.UplinkMbps)
	}
	if nominal.DownlinkMbps != ch.DownlinkMbps || nominal.SetupMs != ch.SetupMs {
		t.Errorf("adopted channel: downlink %g Mb/s setup %g ms, want the nominal %g Mb/s / %g ms",
			nominal.DownlinkMbps, nominal.SetupMs, ch.DownlinkMbps, ch.SetupMs)
	}
}
