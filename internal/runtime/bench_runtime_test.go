package runtime

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/engine"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

var benchState struct {
	once   sync.Once
	err    error
	m      *engine.Model
	plan   *core.Plan
	inputs []*tensor.Tensor
	scale  float64
}

// benchSetup loads AlexNet once and plans the paper's Wi-Fi JPS batch:
// job 1 offloads at the input (comm-heavy S1), the rest cut after
// conv1 (comp-heavy S2).
//
// The channel time scale is calibrated so total simulated link time
// matches this machine's measured compute time for the batch. JPS
// picks the cut where the two flow-shop stages balance (Johnson's
// regime); calibrating keeps the benchmark at that operating point
// regardless of host speed. An uncalibrated scale degenerates: a fast
// host makes the run pure simulated-comm, a slow host makes it pure
// compute, and either way the pipeline being measured disappears.
func benchSetup(b *testing.B) (*engine.Model, *core.Plan, []*tensor.Tensor, float64) {
	b.Helper()
	benchState.once.Do(func() {
		g, err := models.Build("alexnet")
		if err != nil {
			benchState.err = err
			return
		}
		m := engine.Load(g, 42)
		curve := profile.BuildCurve(g, profile.RaspberryPi4(), profile.CloudGPU(), netsim.WiFi, tensor.Float32)
		plan, err := core.JPS(curve, 8)
		if err != nil {
			benchState.err = err
			return
		}
		units := profile.LineView(g)
		inShape := g.Node(units[0].Exit).OutShape
		inputs := make([]*tensor.Tensor, len(plan.Cuts))
		for i := range inputs {
			in := tensor.New(inShape)
			for j := range in.Data {
				in.Data[j] = float32((j+i*13)%29)/29 - 0.5
			}
			inputs[i] = in
		}
		// Calibrate: one full forward approximates a job's prefix +
		// suffix compute on this host.
		start := time.Now()
		if _, err := m.Forward(inputs[0].Clone()); err != nil {
			benchState.err = err
			return
		}
		computeMs := float64(time.Since(start).Milliseconds()) * float64(len(plan.Cuts))
		var linkMs float64
		for _, cut := range plan.Cuts {
			shape := g.Node(units[cut].Exit).OutShape
			linkMs += netsim.WiFi.TxMs(RequestWireBytes(shape))
		}
		scale := computeMs / linkMs
		if scale <= 0 {
			scale = 1
		}
		// Floor the scale so each paced upload spans many scheduler
		// quanta. When the assembly kernels cut whole-model compute
		// ~3.5x, the calibrated balance point dropped per-upload wall
		// windows toward the ~10 ms preemption granularity of a
		// single-core host; timer oversleep while the server worker
		// holds the CPU then reads as a ~40% bandwidth shortfall and
		// trips the adaptive replanner's 30% divergence trigger on a
		// perfectly healthy link. The floor trades exact stage balance
		// for pacing fidelity — both legs of each within-run ratio
		// (adaptive/static, solo/batched) shift identically.
		if scale < 2 {
			scale = 2
		}
		benchState.m, benchState.plan, benchState.inputs, benchState.scale = m, plan, inputs, scale
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
	return benchState.m, benchState.plan, benchState.inputs, benchState.scale
}

// benchDial starts a one-connection server and dials it over loopback
// TCP. The kernel socket buffer decouples the paced writer from the
// server's read loop, which net.Pipe's synchronous rendezvous does not.
func benchDial(b *testing.B, m *engine.Model) net.Conn {
	b.Helper()
	return benchDialServer(b, NewServer(m))
}

// benchDialServer is benchDial for a caller-configured server.
func benchDialServer(b testing.TB, srv *Server) net.Conn {
	b.Helper()
	b.Cleanup(srv.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		defer lis.Close()
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = srv.HandleConn(conn)
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	return conn
}

// BenchmarkRunPlan measures the full-duplex pipeline on the paper's
// AlexNet + Wi-Fi JPS plan: a dedicated writer streams boundary
// tensors while the reply demultiplexer collects out-of-order
// completions from the server's worker pool.
func BenchmarkRunPlan(b *testing.B) {
	m, plan, inputs, scale := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn := benchDial(b, m)
		cl := NewClient(conn, m, netsim.WiFi, scale)
		rep, err := cl.RunPlan(plan, inputs)
		conn.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) != len(plan.Cuts) {
			b.Fatalf("got %d results", len(rep.Results))
		}
	}
}

// BenchmarkRunPlanSync is the synchronous baseline the seed runtime
// imposed: each job computes its prefix, uploads, and blocks for the
// reply before the next job starts — no overlap between the mobile
// CPU, the link, and the cloud.
func BenchmarkRunPlanSync(b *testing.B) {
	m, plan, inputs, scale := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn := benchDial(b, m)
		cl := NewClient(conn, m, netsim.WiFi, scale)
		for _, j := range plan.Sequence {
			if _, err := cl.RunJob(j.ID, plan.Cuts[j.ID], inputs[j.ID]); err != nil {
				conn.Close()
				b.Fatal(err)
			}
		}
		conn.Close()
	}
}

// benchHeadCut loads mobilenetv2 and returns the cut at its deepest
// unit (boundary after the head's global average pool) with a synthetic
// boundary activation — the batching benchmarks' shared workload, where
// the cloud suffix is the weight-streaming-bound dense head.
func benchHeadCut(b *testing.B) (*engine.Model, int, *tensor.Tensor) {
	b.Helper()
	g, err := models.Build("mobilenetv2")
	if err != nil {
		b.Fatal(err)
	}
	m := engine.Load(g, 42)
	units := profile.LineView(g)
	node, ok := g.NodeByName("head/gap")
	if !ok {
		b.Fatal("mobilenetv2 has no head/gap node")
	}
	cut := -1
	for i, u := range units {
		if u.Exit == node.ID {
			cut = i
		}
	}
	if cut < 0 {
		b.Fatal("head/gap is not a unit boundary")
	}
	boundary := tensor.New(node.OutShape)
	for i := range boundary.Data {
		boundary.Data[i] = float32(i%31)/31 - 0.5
	}
	return m, cut, boundary
}

// BenchmarkServerCoalescer measures the server stage's tail groups on
// their best-case workload: 32 concurrent jobs all cut at mobilenetv2's
// deepest unit — its tail unit — leaving the weight-streaming-bound dense
// head as the cloud suffix. "cap=16" is the default server, whose groups
// close at the GEMM tile, two per wave; "cap=32" is WithBatching's cap
// at the wave, one group and one widened GEMM for all of it. ns/job is
// wall time per inference seen by the client — the server-stage
// throughput number quoted in EXPERIMENTS.md.
func BenchmarkServerCoalescer(b *testing.B) {
	m, cut, boundary := benchHeadCut(b)
	const jobs = 32

	run := func(b *testing.B, srv *Server) {
		conn := benchDialServer(b, srv)
		defer conn.Close()
		cl := NewClient(conn, m, netsim.WiFi, 1e-6)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			calls := make([]*call, jobs)
			for j := range calls {
				c, err := cl.enqueueInfer(&JobResult{JobID: j}, cut, boundary)
				if err != nil {
					b.Fatal(err)
				}
				calls[j] = c
			}
			for _, c := range calls {
				if err := cl.await(c); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
	}
	b.Run(fmt.Sprintf("cap=%d", tailGroupMax), func(b *testing.B) { run(b, NewServer(m).WithWorkers(4)) })
	b.Run(fmt.Sprintf("cap=%d", jobs), func(b *testing.B) {
		run(b, NewServer(m).WithWorkers(4).WithBatching(0, jobs))
	})
}

// BenchmarkFleetServer measures the serving fabric under fleet load: 8
// clients on independent loopback TCP connections, each with its own
// tenant ID, concurrently flood the same mobilenetv2 head cut with 8
// jobs apiece. The default server merges jobs across sockets into
// widened GEMMs: they arrive cut at the tail unit, park as they are
// popped, and run in groups of up to 16. ns/job is wall time per
// inference seen by the clients.
func BenchmarkFleetServer(b *testing.B) {
	m, cut, boundary := benchHeadCut(b)
	const clients = 8
	const jobsPerClient = 8

	srv := NewServer(m).WithWorkers(4)
	b.Cleanup(srv.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lis.Close() })
	go func() { _ = srv.Serve(lis) }()
	cls := make([]*Client, clients)
	for c := range cls {
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { conn.Close() })
		cls[c] = NewClient(conn, m, netsim.WiFi, 1e-6).
			WithTenant(fmt.Sprintf("bench-%d", c))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errs := make(chan error, clients)
		var wg sync.WaitGroup
		for _, cl := range cls {
			wg.Add(1)
			go func(cl *Client) {
				defer wg.Done()
				calls := make([]*call, jobsPerClient)
				for j := range calls {
					c, err := cl.enqueueInfer(&JobResult{JobID: j}, cut, boundary)
					if err != nil {
						errs <- err
						return
					}
					calls[j] = c
				}
				for _, c := range calls {
					if err := cl.await(c); err != nil {
						errs <- err
						return
					}
				}
			}(cl)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*clients*jobsPerClient), "ns/job")
}

// BenchmarkRunnerAdaptive measures what continuous adaptive replanning
// costs when the link is healthy: the same fault-tolerant runner
// executes the paper's AlexNet + Wi-Fi plan with the estimator off
// ("static") and on ("adaptive"). On a steady link the estimator
// tracks the nominal rate, so no change point fires and no replan
// runs — the adaptive row pays only the per-upload sample fold and the
// between-windows divergence check, which must be noise against the
// pipeline itself (gated as a within-run ratio by cmd/benchgate).
func BenchmarkRunnerAdaptive(b *testing.B) {
	m, plan, inputs, scale := benchSetup(b)
	g, err := models.Build("alexnet")
	if err != nil {
		b.Fatal(err)
	}
	curve := profile.BuildCurve(g, profile.RaspberryPi4(), profile.CloudGPU(), netsim.WiFi, tensor.Float32)

	run := func(b *testing.B, adaptive bool) {
		opts := RunOptions{Window: 2}
		opts.AdaptiveReplan = adaptive
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dial := func() (net.Conn, error) { return benchDial(b, m), nil }
			r := NewRunner(dial, m, netsim.WiFi, scale, opts).WithCurve(curve)
			rep, err := r.RunPlan(plan, inputs)
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Results) != len(plan.Cuts) {
				b.Fatalf("got %d results", len(rep.Results))
			}
			if rep.Replans != 0 {
				b.Fatalf("steady link replanned %d times (est %.2f Mbps, %d change points)", rep.Replans, rep.EstimatedMbps, rep.ChangePoints)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(plan.Cuts)), "ns/job")
	}
	b.Run("static", func(b *testing.B) { run(b, false) })
	b.Run("adaptive", func(b *testing.B) { run(b, true) })
}

// BenchmarkWriteJob measures the encode side of the wire path: with
// pooled chunk buffers, a line job's 16 K-element tensor frame encodes
// with zero allocations (TestWirePathAllocs holds it to that).
func BenchmarkWriteJob(b *testing.B) {
	tt := tensor.New(tensor.NewCHW(16, 32, 32))
	for i := range tt.Data {
		tt.Data[i] = float32(i)
	}
	pairs := []boundary{{Node: 3, T: tt}}
	b.SetBytes(int64(RequestWireBytes(tt.Shape)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeJob(io.Discard, 1, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadTensor measures the decode side on the 64 KiB float32
// frame BenchmarkWriteJob encodes. decode is readTensorSum: the
// tensor's header, shape and data, three allocations, whatever the
// payload size. copy is io.ReadFull of the same frame into a slice
// allocated once, the floor for a decoder whose payload is read
// straight into its tensor; the bench gate holds decode over copy.
func BenchmarkReadTensor(b *testing.B) {
	var buf bytes.Buffer
	if _, err := writeTensorSum(&buf, boundary{T: tensor.New(tensor.NewCHW(16, 32, 32))}, 0); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	dst := make([]byte, len(frame))
	for _, leg := range []struct {
		name string
		read func(io.Reader) error
	}{
		{"decode", func(r io.Reader) error { _, _, err := readTensorSum(r, 0); return err }},
		{"copy", func(r io.Reader) error { _, err := io.ReadFull(r, dst); return err }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			r := bytes.NewReader(frame)
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(frame)
				if err := leg.read(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
