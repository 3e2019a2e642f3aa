package runtime

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/engine"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// The server must never panic on malformed input — garbage frames,
// truncated requests, absurd sizes all surface as errors.
func TestServerSurvivesGarbageFrames(t *testing.T) {
	m := testModel(t)
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		conn := &rwBuffer{in: bytes.NewReader(buf)}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: server panicked on %x: %v", trial, buf, r)
				}
			}()
			_ = srv.HandleConn(conn)
		}()
	}
}

func TestServerRejectsHugePing(t *testing.T) {
	m := testModel(t)
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	var req bytes.Buffer
	req.WriteByte(2)                                    // msgPing
	req.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F})           // ~2GB payload claim
	conn := &rwBuffer{in: bytes.NewReader(req.Bytes())} // no actual payload
	if err := srv.HandleConn(conn); err == nil {
		t.Error("oversized ping must error")
	}
}

func TestServerRejectsUnknownMessageType(t *testing.T) {
	m := testModel(t)
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	conn := &rwBuffer{in: bytes.NewReader([]byte{0xAB})}
	if err := srv.HandleConn(conn); err == nil {
		t.Error("unknown message type must error")
	}
}

// rwBuffer adapts a reader + discard writer to io.ReadWriter.
type rwBuffer struct {
	in io.Reader
}

func (b *rwBuffer) Read(p []byte) (int, error)  { return b.in.Read(p) }
func (b *rwBuffer) Write(p []byte) (int, error) { return len(p), nil }

// Several clients may hit one server concurrently (one goroutine per
// connection); results must stay correct and isolated.
func TestConcurrentClients(t *testing.T) {
	m := testModel(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer lis.Close()
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	go func() { _ = srv.Serve(lis) }()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			cl := NewClient(conn, m, netsim.WiFi, 1e-6)
			in := input(c)
			want, _ := m.Forward(in.Clone())
			for cut := 0; cut < cl.Units(); cut += 2 {
				res, err := cl.RunJob(c*100+cut, cut, in.Clone())
				if err != nil {
					errs <- err
					return
				}
				if res.Class != engine.Argmax(want) {
					t.Errorf("client %d cut %d: class %d, want %d", c, cut, res.Class, engine.Argmax(want))
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Pipelined plans with many jobs stress the queue path.
func TestRunPlanManyJobs(t *testing.T) {
	m := testModel(t)
	cl := startPair(t, m, netsim.WiFi)
	curve := profile.BuildCurve(m.Graph(), profile.RaspberryPi4(), profile.CloudGPU(),
		netsim.WiFi, tensor.Float32)
	plan, err := core.JPS(curve, 24)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, 24)
	for i := range inputs {
		inputs[i] = input(i)
	}
	rep, err := cl.RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 24 {
		t.Fatalf("got %d results", len(rep.Results))
	}
}

// TestRunnerFaultMatrix sweeps {drop, stall, disconnect} x {during
// upload, during reply} x {line plan, general plan}. Whatever the fault
// and whichever kind of boundary the jobs ship, a run through the
// fault-tolerant runner must terminate within the guard timeout and
// return complete, correct results — retried to success over the link
// or finished by the local fallback, never a hang and never a panic —
// and leave no goroutine behind. The injector is faulty on the first
// two connections and clean afterwards, so every case exercises real
// recovery.
func TestRunnerFaultMatrix(t *testing.T) {
	m := branchedModel(t)
	cases := []struct {
		name     string
		up, down netsim.FaultSpec
	}{
		{"drop-during-upload", netsim.FaultSpec{DropProb: 0.3}, netsim.FaultSpec{}},
		{"drop-during-reply", netsim.FaultSpec{}, netsim.FaultSpec{DropProb: 0.3}},
		{"stall-during-upload", netsim.FaultSpec{StallProb: 0.5, StallMs: 20}, netsim.FaultSpec{}},
		{"stall-during-reply", netsim.FaultSpec{}, netsim.FaultSpec{StallProb: 0.5, StallMs: 20}},
		{"disconnect-during-upload", netsim.FaultSpec{DisconnectAfterBytes: 40_000}, netsim.FaultSpec{}},
		{"disconnect-during-reply", netsim.FaultSpec{}, netsim.FaultSpec{DisconnectProb: 0.3}},
	}
	const n = 6
	// Both plans offload every job: the line plan ships the stem's one
	// tensor (8 KB), the general plan the two-branch boundary set (16 KB).
	plans := []struct {
		name string
		run  func(*Runner, []*tensor.Tensor) (*FTReport, error)
	}{
		{"line", func(r *Runner, in []*tensor.Tensor) (*FTReport, error) { return r.RunPlan(uniformPlan(n, 1), in) }},
		{"general", func(r *Runner, in []*tensor.Tensor) (*FTReport, error) {
			return r.RunGeneralPlan(uniformGeneralPlan(n, twoTensorCut(t, m)), in)
		}},
	}
	for ci, tc := range cases {
		tc := tc
		seed := int64(100 + 10*ci)
		inputs := make([]*tensor.Tensor, n)
		for i := range inputs {
			inputs[i] = input(i + ci*7)
		}
		// The fault cases run one after another so that each can count
		// its own goroutines; within a case nothing is parallel either.
		t.Run(tc.name, func(t *testing.T) {
			for _, plan := range plans {
				plan := plan
				t.Run(plan.name, func(t *testing.T) {
					goroutinesSettle(t)
					dial := faultyDialer(t, m, seed, 1, func(i int) (up, down netsim.FaultSpec) {
						if i < 2 {
							return tc.up, tc.down
						}
						return netsim.FaultSpec{}, netsim.FaultSpec{}
					})
					r := NewRunner(dial, m, netsim.WiFi, 1e-3, RunOptions{
						JobTimeout:    300 * time.Millisecond,
						MaxReconnects: 6,
						BackoffBase:   time.Millisecond,
						BackoffMax:    4 * time.Millisecond,
						Seed:          seed,
						Window:        3,
					})

					type outcome struct {
						rep *FTReport
						err error
					}
					done := make(chan outcome, 1)
					go func() {
						rep, err := plan.run(r, inputs)
						done <- outcome{rep, err}
					}()
					select {
					case out := <-done:
						if out.err != nil {
							t.Fatalf("runner must recover from %s, got %v", tc.name, out.err)
						}
						checkComplete(t, out.rep, wantClasses(t, m, inputs))
					case <-time.After(30 * time.Second):
						t.Fatalf("runner hung under %s", tc.name)
					}
				})
			}
		})
	}
}
