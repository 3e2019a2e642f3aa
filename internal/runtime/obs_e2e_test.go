package runtime

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"dnnjps/internal/estimator"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/profile"
	"dnnjps/internal/sim"
	"dnnjps/internal/tensor"
)

// waitSettled polls until cond holds: the instrumentation that runs
// after a frame's flush (the writer's upload span, the server's reply
// accounting) races the reply delivery that unblocks RunPlan, so tests
// give those goroutines a moment to finish their bookkeeping.
func waitSettled(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("instrumentation did not settle within 5s")
}

// The sim bridge duplicates the runtime's occupancy span names rather
// than importing them; this pins the two sets together so a rename on
// either side fails loudly.
func TestSpanNamesMatchSimBridge(t *testing.T) {
	stages := sim.RuntimeStages()
	want := map[string]string{
		SpanLocalCompute: sim.ResMobile,
		SpanUpload:       sim.ResUplink,
		SpanCloudCompute: sim.ResCloud,
	}
	if len(stages) != len(want) {
		t.Fatalf("sim.RuntimeStages has %d entries, want %d", len(stages), len(want))
	}
	for name, res := range want {
		st, ok := stages[name]
		if !ok {
			t.Errorf("span %q missing from sim.RuntimeStages", name)
			continue
		}
		if st.Resource != res {
			t.Errorf("span %q maps to %q, want %q", name, st.Resource, res)
		}
	}
}

// TestTraceGanttMatchesSimulator closes the loop between measurement
// and theory: a live pipelined run's recorded spans, bridged into
// Gantt form, must agree with the discrete-event simulator replaying
// the same per-job durations (measured f and cloud, channel-model g).
// This is the paper's Prop. 4.1 decomposition checked stage by stage
// rather than only at the makespan.
func TestTraceGanttMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the per-stage timings this test asserts on")
	}
	m := pipeModel(t)
	// Same regime as TestRunPlanMatchesProp41: 16 KB boundary over
	// 8 Mb/s = ~16 ms per upload, dominating compute noise.
	ch := netsim.Channel{Name: "trace", UplinkMbps: 8, SetupMs: 0}
	const (
		scale = 1.0
		n     = 8
		cut   = 3
	)
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	o := NewObs(obs.NewTracer(0), obs.NewMetrics())
	srv := NewServer(m).WithWorkers(4).WithObs(o)
	t.Cleanup(srv.Close)
	go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
	cl := NewClient(cConn, m, ch, scale).WithObs(o)

	plan := uniformPlan(n, cut)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = pipeInput(i)
	}
	rep, err := cl.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}

	stages := sim.RuntimeStages()
	waitSettled(t, func() bool {
		return len(sim.FromTrace(o.Tracer.Spans(), stages, scale).Gantt[sim.ResUplink]) == n
	})
	measured := sim.FromTrace(o.Tracer.Spans(), stages, scale)
	for _, res := range []string{sim.ResMobile, sim.ResUplink, sim.ResCloud} {
		if got := len(measured.Gantt[res]); got != n {
			t.Fatalf("%s: %d measured intervals, want %d", res, got, n)
		}
	}

	// Replay the same run through the simulator: measured device and
	// cloud times, channel-model upload times (what the shaper paces).
	units := profile.LineView(m.Graph())
	gMs := ch.TxMs(RequestWireBytes(m.Graph().Node(units[cut].Exit).OutShape))
	f := make([]float64, n)
	g := make([]float64, n)
	cloud := make([]float64, n)
	for i, r := range rep.Results { // sorted by JobID = sequence order here
		f[i], g[i], cloud[i] = r.MobileMs, gMs, r.CloudMs
	}
	simRes, err := sim.Run(sim.FromDurations(f, g, cloud))
	if err != nil {
		t.Fatal(err)
	}

	ratio := measured.Makespan / simRes.Makespan
	t.Logf("measured makespan %.2f ms, simulated %.2f ms (ratio %.3f)",
		measured.Makespan, simRes.Makespan, ratio)
	if ratio > 1.2 || ratio < 0.8 {
		t.Errorf("measured makespan %.2f ms vs simulated %.2f ms: ratio %.3f outside [0.8, 1.2]",
			measured.Makespan, simRes.Makespan, ratio)
	}
	// The uplink is the paced bottleneck: its busy time is enforced by
	// the shaper, so measurement and model must agree closely.
	ub, sb := measured.BusyMs[sim.ResUplink], simRes.BusyMs[sim.ResUplink]
	if math.Abs(ub-sb)/sb > 0.15 {
		t.Errorf("uplink busy %.2f ms vs simulated %.2f ms: diverged > 15%%", ub, sb)
	}
	// Device busy comes from the same measurements FromDurations replays.
	db, dsb := measured.BusyMs[sim.ResMobile], simRes.BusyMs[sim.ResMobile]
	if dsb > 0 && math.Abs(db-dsb)/dsb > 0.15 {
		t.Errorf("device busy %.2f ms vs simulated %.2f ms: diverged > 15%%", db, dsb)
	}
	// The uplink serializes in schedule order, in both worlds.
	for i := range measured.Gantt[sim.ResUplink] {
		mj := measured.Gantt[sim.ResUplink][i].JobID
		sj := simRes.Gantt[sim.ResUplink][i].JobID
		if mj != sj {
			t.Errorf("uplink slot %d: measured job %d, simulated job %d", i, mj, sj)
		}
	}
}

// Metrics and exports after a real run: counters reflect the wire
// traffic exactly, the gauge returns to idle, and both trace export
// formats produce parseable output.
func TestObsMetricsAndExports(t *testing.T) {
	m := testModel(t)
	reg := obs.NewMetrics()
	o := NewObs(obs.NewTracer(0), reg)
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	srv := NewServer(m).WithWorkers(2).WithObs(o)
	t.Cleanup(srv.Close)
	go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
	cl := NewClient(cConn, m, netsim.WiFi, 1e-6).WithObs(o)

	const (
		n   = 6
		cut = 1
	)
	plan := uniformPlan(n, cut)
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = input(i)
	}
	if _, err := cl.RunPlan(plan, inputs); err != nil {
		t.Fatal(err)
	}
	units := profile.LineView(m.Graph())
	reqBytes := int64(RequestWireBytes(m.Graph().Node(units[cut].Exit).OutShape))
	// The busy gauge brackets the whole task, so it drops after the last
	// reply's accounting.
	waitSettled(t, func() bool {
		return o.ServerJobs.Value() == n && o.BytesUp.Value() == n*reqBytes && o.WorkersBusy.Value() == 0
	})

	if got := o.JobsCompleted.Value(); got != n {
		t.Errorf("jobs completed = %d, want %d", got, n)
	}
	if got := o.BytesUp.Value(); got != n*reqBytes {
		t.Errorf("uplink bytes = %d, want %d", got, n*reqBytes)
	}
	if got := o.BytesDown.Value(); got != n*replyWireBytes {
		t.Errorf("downlink bytes = %d, want %d", got, int64(n*replyWireBytes))
	}
	if got := o.ServerJobs.Value(); got != n {
		t.Errorf("server jobs = %d, want %d", got, n)
	}
	if got := o.ServerRxBytes.Value(); got != n*reqBytes {
		t.Errorf("server rx bytes = %d, want %d", got, n*reqBytes)
	}
	if got := o.ServerTxBytes.Value(); got != n*replyWireBytes {
		t.Errorf("server tx bytes = %d, want %d", got, int64(n*replyWireBytes))
	}
	if got := o.WorkersBusy.Value(); got != 0 {
		t.Errorf("workers busy = %g after run, want 0", got)
	}
	if got := o.ReplyLatency.Count(); got != n {
		t.Errorf("reply latency count = %d, want %d", got, n)
	}

	var chrome bytes.Buffer
	if err := o.Tracer.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}

	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"jps_client_jobs_completed_total 6",
		"jps_server_jobs_total 6",
		"jps_client_reply_latency_ms_count 6",
		"jps_nexthop_forwards_total 0", // a terminal server: registered, never counted
		"jps_nexthop_fallbacks_total 0",
		"jps_nexthop_in_flight 0",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// A set job is as visible as a line job: one line job and one cut-set
// job on the same client leave the same five client span names each,
// the server's rx counters (global and per tenant) read exactly the
// bytes the client says it uploaded, and the estimator was fed.
func TestObsSetJobsAreVisible(t *testing.T) {
	m := branchedModel(t)
	o := NewObs(obs.NewTracer(0), obs.NewMetrics())
	srv := NewServer(m).WithWorkers(2).WithObs(o)
	t.Cleanup(srv.Close)
	cl := NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6).WithObs(o).
		WithEstimator(estimator.New(estimator.Config{})).WithTenant("phone")

	const lineJob, setJob = 0, 1
	if res, err := cl.RunJob(lineJob, 1, input(0)); err != nil || res.Cut != 1 {
		t.Fatalf("line job: %+v, %v", res, err)
	}
	if res, err := cl.RunCutSet(setJob, twoTensorCut(t, m), input(1)); err != nil || res.Cut != -1 {
		t.Fatalf("set job: %+v, %v", res, err)
	}
	stem, _ := m.Graph().NodeByName("stem")
	wantUp := int64(RequestWireBytes(stem.OutShape) + twoTensorSetBytes(m))
	waitSettled(t, func() bool { return o.ServerJobs.Value() == 2 && o.BytesUp.Value() == wantUp })

	if got := o.ServerRxBytes.Value(); got != o.BytesUp.Value() {
		t.Errorf("server rx bytes = %d, client uplink bytes = %d: set jobs must be counted", got, o.BytesUp.Value())
	}
	if got := o.TenantRxBytes.Values()["phone"]; got != wantUp {
		t.Errorf("tenant rx bytes = %d, want %d", got, wantUp)
	}
	if got := o.EstMbps.Value(); got <= 0 {
		t.Errorf("estimated uplink = %g Mb/s after a 16 KB set upload, want > 0", got)
	}
	names := map[int32]map[string]bool{lineJob: {}, setJob: {}}
	for _, sp := range o.Tracer.Spans() {
		if sp.Track == TrackMobile || sp.Track == TrackUplink || sp.Track == TrackCloud {
			names[sp.JobID][sp.Name] = true
		}
	}
	for _, id := range []int32{lineJob, setJob} {
		for _, want := range []string{SpanLocalCompute, SpanQueueWait, SpanSerialize, SpanUpload, SpanReplyWait} {
			if !names[id][want] {
				t.Errorf("job %d: no %q span; a set job records what a line job records", id, want)
			}
		}
		if len(names[id]) != 5 {
			t.Errorf("job %d: client spans %v, want exactly the five", id, names[id])
		}
	}
}

// A forwarding stage is visible: counters for handoffs and fallbacks,
// the in-flight gauge back at zero, and per job a forward-wait span
// nested in the cloud-compute span that the reply's CloudNs reports —
// worker pickup to relay — so the client's CommMs attribution is the
// same as against a terminal server. (The pool gauge dropping at the
// handoff, not at the reply, is asserted where the replies are held
// back: TestNextHopCloseDrainsInFlight.)
func TestObsForwardingStage(t *testing.T) {
	m := testModel(t)
	const (
		n       = 10
		handoff = 3
	)
	srv, o := startMiddle(t, m, startTerminal(t, m), handoff, nil)
	cl, _ := attach(t, srv, m)
	boundaries, want := variedBoundaries(t, m, 0, n, 13)
	rep, err := cl.RunBoundaryJobs(0, boundaries)
	if err != nil {
		t.Fatal(err)
	}
	checkClasses(t, rep, want)
	waitSettled(t, func() bool { return o.ServerJobs.Value() == n && o.WorkersBusy.Value() == 0 })

	if f, fb := o.NextHopForwards.Value(), o.NextHopFallbacks.Value(); f != n || fb != 0 {
		t.Errorf("forwards %d fallbacks %d, want %d and 0", f, fb, n)
	}
	if got := o.NextHopInFlight.Value(); got != 0 {
		t.Errorf("in-flight gauge = %g after the run, want 0", got)
	}
	// Each job ran its middle segment in exactly one pass, of one or of a
	// group, whatever the timing made the groups.
	if sum, counted := o.BatchSize.Sum(), o.BatchedJobs.Value()+o.SoloJobs.Value(); sum != n || counted != n {
		t.Errorf("batch sizes sum to %g over %d counted jobs, want %d of each", sum, counted, n)
	}
	waits, computes := map[int32]obs.Span{}, map[int32]obs.Span{}
	for _, sp := range o.Tracer.Spans() {
		if sp.Track != TrackServer {
			continue
		}
		switch sp.Name {
		case SpanForwardWait:
			waits[sp.JobID] = sp
		case SpanCloudCompute:
			computes[sp.JobID] = sp
		}
	}
	if len(waits) != n || len(computes) != n {
		t.Fatalf("%d forward-wait and %d cloud-compute spans, want %d of each", len(waits), len(computes), n)
	}
	for _, res := range rep.Results {
		id := int32(res.JobID)
		w, c := waits[id], computes[id]
		if w.StartNs < c.StartNs || w.EndNs() > c.EndNs() {
			t.Errorf("job %d: forward-wait [%d,%d] not inside cloud-compute [%d,%d]",
				id, w.StartNs, w.EndNs(), c.StartNs, c.EndNs())
		}
		if cloudNs := int64(res.CloudMs * 1e6); cloudNs < c.DurNs-1000 || cloudNs > c.DurNs+1000 {
			t.Errorf("job %d: reply reports %d ns of cloud time, its cloud-compute span is %d ns", id, cloudNs, c.DurNs)
		}
		if res.CommMs < 0 {
			t.Errorf("job %d: CommMs %g < 0: cloud and queue time exceed the round trip", id, res.CommMs)
		}
	}
}

// Without WithObs a component holds the zero Obs, and WithObs(nil) maps
// to it, even after a real bundle: a terminal server, a forwarding stage
// in front of it, a client and a runner serve jobs end to end — handoffs
// at the stage, and a retry after the runner's first connection is cut —
// with no instrument attached, and the detached bundle records nothing.
func TestNoObsIsTheZeroObs(t *testing.T) {
	m := testModel(t)
	const (
		n       = 6
		cut     = 1
		handoff = 3
	)
	tr, reg := obs.NewTracer(0), obs.NewMetrics()
	for _, tc := range []struct {
		name  string
		calls []*Obs // the WithObs calls every component gets, in order
	}{
		{"none", nil},
		{"nil", []*Obs{nil}},
		{"detached", []*Obs{NewObs(tr, reg), nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withObs := func(with func(*Obs)) {
				for _, o := range tc.calls {
					with(o)
				}
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			term := NewServer(m).WithWorkers(2)
			withObs(func(o *Obs) { term.WithObs(o) })
			go func() { _ = term.Serve(lis) }()
			t.Cleanup(func() {
				lis.Close()
				term.Close()
			})
			mid := NewServer(m).WithWorkers(2)
			withObs(func(o *Obs) { mid.WithObs(o) })
			if _, err := mid.WithNextHop(lis.Addr().String(), handoff); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(mid.Close)

			cl, _ := attach(t, mid, m)
			withObs(func(o *Obs) { cl.WithObs(o) })
			boundaries, want := variedBoundaries(t, m, 0, n, 5)
			rep, err := cl.RunBoundaryJobs(0, boundaries)
			if err != nil {
				t.Fatal(err)
			}
			checkClasses(t, rep, want)

			dials := 0
			r := NewRunner(func() (net.Conn, error) {
				cConn, sConn := net.Pipe()
				go func() { defer sConn.Close(); _ = mid.HandleConn(sConn) }()
				var up netsim.FaultSpec
				if dials++; dials == 1 {
					up.DisconnectAfterBytes = 1 // the first frame cuts the first connection
				}
				return netsim.Inject(cConn, up, netsim.FaultSpec{}, int64(dials), 1e-6), nil
			}, m, netsim.WiFi, 1e-6, RunOptions{MaxReconnects: 3, BackoffBase: time.Millisecond})
			withObs(func(o *Obs) { r.WithObs(o) })
			inputs := make([]*tensor.Tensor, n)
			for i := range inputs {
				inputs[i] = input(i)
			}
			ft, err := r.RunPlan(uniformPlan(n, cut), inputs)
			if err != nil {
				t.Fatal(err)
			}
			checkComplete(t, ft, wantClasses(t, m, inputs))
			if ft.Reconnects == 0 || ft.RetriedJobs == 0 || ft.LocalFallbackJobs != 0 {
				t.Errorf("reconnects %d, retried jobs %d, local fallbacks %d: want a retry on a second connection and no fallback",
					ft.Reconnects, ft.RetriedJobs, ft.LocalFallbackJobs)
			}

			if got := tr.Len(); got != 0 {
				t.Errorf("detached tracer recorded %d spans", got)
			}
			var prom strings.Builder
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(strings.TrimSpace(prom.String()), "\n") {
				if f := strings.Fields(line); f[0] != "#" && f[len(f)-1] != "0" {
					t.Errorf("detached registry recorded %q", line)
				}
			}
		})
	}
}
