package runtime

import (
	"bytes"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/netsim"
	"dnnjps/internal/nn"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// testModel is a small line CNN shared by the runtime tests.
func testModel(t testing.TB) *engine.Model {
	t.Helper()
	g := dag.New("rttest")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(3, 16, 16)})
	c1 := g.Add(&nn.Conv2D{LayerName: "conv1", OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, in)
	r1 := g.Add(nn.NewActivation("relu1", nn.ReLU), c1)
	p1 := g.Add(nn.NewMaxPool2D("pool1", 2, 2, 0), r1)
	c2 := g.Add(&nn.Conv2D{LayerName: "conv2", OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, p1)
	r2 := g.Add(nn.NewActivation("relu2", nn.ReLU), c2)
	gp := g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, r2)
	fc := g.Add(&nn.Dense{LayerName: "fc", Out: 5, Bias: true}, gp)
	g.Add(nn.NewSoftmax("softmax"), fc)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return engine.Load(g, 1234)
}

// startPair wires a client and server over net.Pipe with a fast time
// scale.
func startPair(t *testing.T, m *engine.Model, ch netsim.Channel) *Client {
	t.Helper()
	cConn, sConn := net.Pipe()
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	go func() {
		defer sConn.Close()
		_ = srv.HandleConn(sConn)
	}()
	t.Cleanup(func() { cConn.Close() })
	return NewClient(cConn, m, ch, 1e-6)
}

// goroutinesSettle is a test's leak check; call it before the test
// starts anything. It takes the goroutine count as the baseline and, as
// the test's last cleanup (the first registered runs last), waits for
// the count to come back down to it, failing with a dump of what is
// still running if it does not.
func goroutinesSettle(t *testing.T) {
	t.Helper()
	baseline := goruntime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for goruntime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				buf = buf[:goruntime.Stack(buf, true)]
				t.Errorf("%d goroutines running, %d before the test:\n%s", goruntime.NumGoroutine(), baseline, buf)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

func input(i int) *tensor.Tensor {
	in := tensor.New(tensor.NewCHW(3, 16, 16))
	for j := range in.Data {
		in.Data[j] = float32((j+i*7)%13)/13 - 0.4
	}
	return in
}

// TestWirePathAllocs holds the wire path to its allocation counts:
// encoding a job frame — a float32 line job, an int8 line job, a mixed
// two-pair set — or a reply allocates nothing, headers staging through
// the pooled chunks and payloads written from the tensors' own memory;
// decoding a line job allocates the request and its one tensor's
// header, shape and data, whatever the payload size: the pair lives in
// the request, and the payload is read into the tensor's data.
func TestWirePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under -race (sync.Pool randomly drops Puts)")
	}
	fp := tensor.New(tensor.NewCHW(16, 32, 32))
	q := tensor.NewQ(tensor.NewCHW(16, 32, 32), tensor.QParams{Scale: 0.1})
	for name, pairs := range map[string][]boundary{
		"float32 line": {{Node: 3, T: fp}},
		"int8 line":    {{Node: 3, Q: q}},
		"mixed set":    {{Node: 3, T: fp}, {Node: 5, Q: q}},
	} {
		if got := testing.AllocsPerRun(50, func() { _ = writeJob(io.Discard, 1, pairs) }); got != 0 {
			t.Errorf("writeJob, %s: %.1f allocs, want 0", name, got)
		}
	}
	rep := &inferReply{JobID: 1, Class: 7}
	if got := testing.AllocsPerRun(50, func() { _ = writeInferReply(io.Discard, rep) }); got != 0 {
		t.Errorf("writeInferReply: %.1f allocs, want 0", got)
	}
	var frame bytes.Buffer
	if err := writeJob(&frame, 1, []boundary{{Node: 3, T: fp}}); err != nil {
		t.Fatal(err)
	}
	body := bytes.NewReader(frame.Bytes()[1:])
	got := testing.AllocsPerRun(50, func() {
		body.Reset(frame.Bytes()[1:])
		if _, err := readJobBody(body); err != nil {
			t.Fatal(err)
		}
	})
	if got != 4 {
		t.Errorf("readJobBody, float32 line: %.1f allocs, want 4 (request, tensor, shape, data)", got)
	}
}

func TestTensorWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := input(3)
	if _, err := writeTensorSum(&buf, boundary{T: orig}, 0); err != nil {
		t.Fatal(err)
	}
	p, _, err := readTensorSum(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := p.T
	if !got.Shape.Equal(orig.Shape) {
		t.Fatalf("shape %v != %v", got.Shape, orig.Shape)
	}
	for i := range orig.Data {
		if got.Data[i] != orig.Data[i] {
			t.Fatal("payload corrupted")
		}
	}
}

func TestReadTensorRejectsGarbage(t *testing.T) {
	// Rank 0.
	if _, _, err := readTensorSum(bytes.NewReader([]byte{0}), 0); err == nil {
		t.Error("rank 0 must error")
	}
	// Rank 9.
	if _, _, err := readTensorSum(bytes.NewReader([]byte{9}), 0); err == nil {
		t.Error("rank 9 must error")
	}
	// Negative dim.
	var buf bytes.Buffer
	buf.WriteByte(1)
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // -1 little endian
	if _, _, err := readTensorSum(&buf, 0); err == nil {
		t.Error("negative dim must error")
	}
	// Truncated payload.
	var buf2 bytes.Buffer
	_, _ = writeTensorSum(&buf2, boundary{T: input(0)}, 0)
	trunc := buf2.Bytes()[:buf2.Len()-10]
	if _, _, err := readTensorSum(bytes.NewReader(trunc), 0); err == nil {
		t.Error("truncated payload must error")
	}
}

func TestRunJobEveryCutMatchesLocalForward(t *testing.T) {
	m := testModel(t)
	cl := startPair(t, m, netsim.WiFi)
	in := input(1)
	want, err := m.Forward(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	wantClass := engine.Argmax(want)
	for cut := 0; cut < cl.Units(); cut++ {
		res, err := cl.RunJob(cut, cut, in.Clone())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if res.Class != wantClass {
			t.Errorf("cut %d: class %d, want %d", cut, res.Class, wantClass)
		}
		if res.MobileMs < 0 || res.CommMs < 0 {
			t.Errorf("cut %d: negative timings %+v", cut, res)
		}
	}
}

func TestRunJobLocalOnlySkipsNetwork(t *testing.T) {
	m := testModel(t)
	// No server behind the pipe: a local-only job must still succeed.
	cConn, _ := net.Pipe()
	defer cConn.Close()
	cl := NewClient(cConn, m, netsim.WiFi, 1e-6)
	res, err := cl.RunJob(0, cl.Units()-1, input(2))
	if err != nil {
		t.Fatalf("local-only: %v", err)
	}
	if res.CommMs != 0 || res.CloudMs != 0 {
		t.Errorf("local-only must not touch the network: %+v", res)
	}
}

func TestRunJobRejectsBadCut(t *testing.T) {
	m := testModel(t)
	cl := startPair(t, m, netsim.WiFi)
	if _, err := cl.RunJob(0, cl.Units(), input(0)); err == nil {
		t.Error("out-of-range cut must error")
	}
	if _, err := cl.RunJob(0, -1, input(0)); err == nil {
		t.Error("negative cut must error")
	}
}

func TestRunPlanPipelined(t *testing.T) {
	m := testModel(t)
	cl := startPair(t, m, netsim.FourG)
	g := m.Graph()
	curve := profile.BuildCurve(g, profile.RaspberryPi4(), profile.CloudGPU(), netsim.FourG, tensor.Float32)
	n := 6
	plan, err := core.JPS(curve, n)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = input(i)
	}
	rep, err := cl.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != n {
		t.Fatalf("got %d results, want %d", len(rep.Results), n)
	}
	if rep.MakespanMs <= 0 {
		t.Error("non-positive makespan")
	}
	// Every job classified identically to a pure local run.
	seen := map[int]bool{}
	for _, r := range rep.Results {
		if seen[r.JobID] {
			t.Fatalf("duplicate result for job %d", r.JobID)
		}
		seen[r.JobID] = true
		want, _ := m.Forward(inputs[r.JobID].Clone())
		if r.Class != engine.Argmax(want) {
			t.Errorf("job %d: class %d, want %d", r.JobID, r.Class, engine.Argmax(want))
		}
	}
}

func TestRunPlanInputCountMismatch(t *testing.T) {
	m := testModel(t)
	cl := startPair(t, m, netsim.WiFi)
	curve := profile.BuildCurve(m.Graph(), profile.RaspberryPi4(), profile.CloudGPU(), netsim.WiFi, tensor.Float32)
	plan, _ := core.JPS(curve, 3)
	if _, err := cl.RunPlan(plan, nil); err == nil {
		t.Error("input count mismatch must error")
	}
}

func TestCalibrateComm(t *testing.T) {
	m := testModel(t)
	// 8 Mb/s channel = 1e6 bytes/s.
	ch := netsim.Channel{Name: "cal", UplinkMbps: 8, SetupMs: 100}
	cConn, sConn := net.Pipe()
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	go func() { defer sConn.Close(); _ = srv.HandleConn(sConn) }()
	defer cConn.Close()
	// Scale and SetupMs chosen so shaped sleeps dominate real pipe
	// costs everywhere the fit looks: the scaled intercept is
	// SetupMs * scale = 10 ms and the largest transmit sleep 200 ms,
	// against ms-level copy jitter on a loaded 1-CPU box. (At
	// scale=1e-2 / SetupMs=10 the true intercept was 0.1 ms and
	// convex jitter on the 2 MB payloads could rotate it negative.)
	scale := 1e-1
	cl := NewClient(cConn, m, ch, scale)

	// Three rounds per size; the fit is over each size's fastest.
	fit, err := cl.CalibrateComm([]int{200_000, 600_000, 1_200_000, 2_000_000}, 3)
	if err != nil {
		t.Fatalf("CalibrateComm: %v", err)
	}
	// Expected slope: scale * 1000 ms/s / 1e6 B/s = 1e-5 ms/byte.
	// Under -race the pipe copy itself adds measurable per-byte time,
	// so accept up to ~2.5x; the structural claims (positive intercept,
	// linear fit) are what matter.
	wantSlope := scale * 1000 / ch.BytesPerSec()
	if fit.W1 < wantSlope*0.6 || fit.W1 > wantSlope*2.5 {
		t.Errorf("slope = %g, want within [0.6, 2.5]x of %g", fit.W1, wantSlope)
	}
	// Intercept reflects the (scaled) setup latency, positive.
	if fit.W0 <= 0 {
		t.Errorf("intercept = %g, want > 0", fit.W0)
	}
	if fit.R2 < 0.95 {
		t.Errorf("R2 = %g, calibration too noisy", fit.R2)
	}
}

func TestServeOverTCP(t *testing.T) {
	m := testModel(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer lis.Close()
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	go func() { _ = srv.Serve(lis) }()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	cl := NewClient(conn, m, netsim.WiFi, 1e-6)
	in := input(4)
	want, _ := m.Forward(in.Clone())
	res, err := cl.RunJob(0, 2, in.Clone())
	if err != nil {
		t.Fatalf("RunJob over TCP: %v", err)
	}
	if res.Class != engine.Argmax(want) {
		t.Errorf("class %d, want %d", res.Class, engine.Argmax(want))
	}
}

// TestServerRejectsBadBoundary: every malformed job frame fails its
// connection with the error that names the fault — a pair count out of
// range at decode, and the check's own error for a pair that does not
// fit the model, at a unit exit (a line job) or anywhere else (a set),
// or that sits at the softmax sink, alone or beside another pair — all
// the way in: decode, admission, the worker's task. A type-1 request,
// the line-cut frame before every request was a job frame, is an
// unknown message type. The server that refused them all still answers
// a good job.
func TestServerRejectsBadBoundary(t *testing.T) {
	m := branchedModel(t)
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	g := m.Graph()
	stem, _ := g.NodeByName("stem")
	a1, _ := g.NodeByName("a1")
	frame := func(pairs ...boundary) []byte {
		var frame bytes.Buffer
		if err := writeJob(&frame, 1, pairs); err != nil {
			t.Fatal(err)
		}
		return frame.Bytes()
	}
	job := func(node int) []byte { return frame(boundary{Node: node, T: tensor.New(tensor.NewVec(1))}) }
	fit := func(id int) boundary { return boundary{Node: id, T: tensor.New(g.Node(id).OutShape)} }
	sink := g.Sink()
	legacy := job(stem.ID)
	legacy[0] = 1
	for _, c := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"zero pair count", []byte{msgJob, 1, 0, 0, 0, 0, 0}, "bad boundary count 0"},
		{"65 pairs", []byte{msgJob, 1, 0, 0, 0, 65, 0}, "bad boundary count 65"},
		{"out-of-range node", job(999), "boundary node 999 out of range"},
		{"wrong shape at a unit exit", job(stem.ID), fmt.Sprintf("boundary %d tensor [1], want %v", stem.ID, stem.OutShape)},
		{"wrong shape at a non-exit node", job(a1.ID), fmt.Sprintf("boundary %d tensor [1], want %v", a1.ID, a1.OutShape)},
		{"retired type-1 request", legacy, "unknown message type 1"},
		{"one pair at the softmax sink", frame(fit(sink)), fmt.Sprintf("boundary %d is the softmax sink", sink)},
		{"two pairs, one at the softmax sink", frame(fit(stem.ID), fit(sink)), fmt.Sprintf("boundary %d is the softmax sink", sink)},
	} {
		if err := srv.HandleConn(&rwBuffer{in: bytes.NewReader(c.frame)}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s must error with %q, got %v", c.name, c.want, err)
		}
	}
	// The server outlives every bad frame: a job on a new connection is
	// still answered, with the class local inference gives.
	cl := NewClient(dialFleet(t, srv), m, netsim.WiFi, 1e-6)
	in := input(5)
	want, err := m.Forward(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res, err := cl.RunCutSet(1, twoTensorCut(t, m), in); err != nil || res.Class != engine.Argmax(want) {
		t.Errorf("after the bad frames: class %v, err %v; want class %d", res, err, engine.Argmax(want))
	}
	if srv.cutOf([]boundary{{Node: stem.ID}}) != 1 || srv.cutOf([]boundary{{Node: a1.ID}}) != -1 {
		t.Error("stem is unit 1's exit, a1 no unit's: the two shape rows must be a line job and a set")
	}
}
