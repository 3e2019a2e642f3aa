package main

import (
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnnjps/internal/engine"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/runtime"
	"dnnjps/internal/tensor"
)

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(serveConfig{model: "lenet", addr: "127.0.0.1:0", seed: 1, faultSeed: 1}); err == nil {
		t.Error("unknown model must error")
	}
	if err := run(serveConfig{model: "alexnet", addr: "256.256.256.256:99999", seed: 1, conc: 4, faultSeed: 1}); err == nil {
		t.Error("unlistenable address must error")
	}
	if err := run(serveConfig{model: "squeezenet", addr: "127.0.0.1:0", seed: 1, faultSeed: 1,
		metricsAddr: "256.256.256.256:99999"}); err == nil {
		t.Error("unlistenable metrics address must error")
	}
	if err := run(serveConfig{model: "squeezenet", addr: "127.0.0.1:0", seed: 1, faultSeed: 1,
		nextHop: "127.0.0.1:1", nextCut: 9999}); err == nil {
		t.Error("out-of-range next-cut must error")
	}
	if err := run(serveConfig{model: "squeezenet", addr: "127.0.0.1:0", seed: 1, faultSeed: 1,
		nextHop: "127.0.0.1:1", nextCut: -1}); err == nil {
		t.Error("negative next-cut must error")
	}
}

// A flag that another flag silently switches off is a usage error that
// names both; main exits 2 on it.
func TestFlagConflict(t *testing.T) {
	for _, c := range []struct {
		cfg   serveConfig
		names []string // empty: the combination is fine
	}{
		{serveConfig{}, nil},
		{serveConfig{nextHop: ":1", nextCut: 3}, nil},
		{serveConfig{metricsAddr: ":0", traceOut: "t.json"}, nil},
		{serveConfig{nextCut: 3}, []string{"-next-cut", "-next-hop"}},
		// -trace-out alone used to be accepted and ignored: no tracer is
		// built without -metrics-addr, so no file was ever written.
		{serveConfig{traceOut: "t.json"}, []string{"-trace-out", "-metrics-addr"}},
		// Out-of-range numbers used to mean something else silently: a
		// negative -conc was GOMAXPROCS, a negative watermark or rate
		// switched shedding or shaping off, and a NaN probability never
		// fired.
		{serveConfig{conc: 16, shedWatermark: 64, downMbps: 8,
			spec: netsim.FaultSpec{DropProb: 1, StallProb: 0.5, StallMs: 50, DisconnectAfterBytes: 1}}, nil},
		{serveConfig{conc: -2}, []string{"-conc"}},
		{serveConfig{shedWatermark: -5}, []string{"-shed-watermark"}},
		{serveConfig{downMbps: -1}, []string{"-downlink-mbps"}},
		{serveConfig{downMbps: math.NaN()}, []string{"-downlink-mbps"}},
		{serveConfig{downMbps: math.Inf(1)}, []string{"-downlink-mbps"}},
		{serveConfig{spec: netsim.FaultSpec{DropProb: math.NaN()}}, []string{"-fault-drop"}},
		{serveConfig{spec: netsim.FaultSpec{DropProb: 1.5}}, []string{"-fault-drop"}},
		{serveConfig{spec: netsim.FaultSpec{DropProb: -0.1}}, []string{"-fault-drop"}},
		{serveConfig{spec: netsim.FaultSpec{StallProb: math.NaN()}}, []string{"-fault-stall-p"}},
		{serveConfig{spec: netsim.FaultSpec{StallProb: 2}}, []string{"-fault-stall-p"}},
		{serveConfig{spec: netsim.FaultSpec{StallMs: -1}}, []string{"-fault-stall-ms"}},
		{serveConfig{spec: netsim.FaultSpec{StallMs: math.NaN()}}, []string{"-fault-stall-ms"}},
		{serveConfig{spec: netsim.FaultSpec{StallMs: math.Inf(1)}}, []string{"-fault-stall-ms"}},
		{serveConfig{spec: netsim.FaultSpec{DisconnectAfterBytes: -1}}, []string{"-fault-disc-bytes"}},
	} {
		err := flagConflict(c.cfg)
		if len(c.names) == 0 {
			if err != nil {
				t.Errorf("%+v: unexpected conflict: %v", c.cfg, err)
			}
			continue
		}
		for _, name := range c.names {
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%+v: err = %v, want one naming %s", c.cfg, err, name)
			}
		}
	}
}

// -conc is the one core budget: the pool, and the width of each pass
// out of GOMAXPROCS.
func TestCoreBudget(t *testing.T) {
	for _, c := range []struct{ conc, procs, pool, width int }{
		{0, 2, 2, 1},
		{1, 2, 1, 2},
		{2, 8, 2, 4},
		{3, 8, 3, 2},
		{16, 8, 16, 1},
	} {
		if pool, width := coreBudget(c.conc, c.procs); pool != c.pool || width != c.width {
			t.Errorf("coreBudget(%d, %d) = (%d, %d), want (%d, %d)", c.conc, c.procs, pool, width, c.pool, c.width)
		}
	}
}

// A failed metrics listen must not leave the serving listener open:
// the port has to be free again once run returns.
func TestRunClosesListenerWhenMetricsListenFails(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	addr := probe.Addr().String()
	probe.Close()
	if err := run(serveConfig{model: "squeezenet", addr: addr, seed: 1, faultSeed: 1,
		metricsAddr: "256.256.256.256:99999"}); err == nil {
		t.Fatal("unlistenable metrics address must error")
	}
	again, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("serving listener on %s still open after run failed: %v", addr, err)
	}
	again.Close()
}

func TestParseTenants(t *testing.T) {
	w, err := parseTenants("gold:2, bronze:1")
	if err != nil || w["gold"] != 2 || w["bronze"] != 1 {
		t.Errorf("parseTenants = %v, %v", w, err)
	}
	if w, err := parseTenants(""); err != nil || w != nil {
		t.Errorf("empty spec: %v, %v", w, err)
	}
	// ParseFloat accepts "NaN"/"Inf" spellings and NaN <= 0 is false, so
	// these once slipped through the positivity guard; duplicates were
	// silently last-wins. All must now fail fast.
	for _, bad := range []string{
		"gold", "gold:", ":2", "gold:0", "gold:-1", "gold:two",
		"gold:NaN", "gold:nan", "gold:Inf", "gold:+Inf", "gold:-Inf",
		"gold:2,gold:3", "gold:2,bronze:1,gold:2",
	} {
		if _, err := parseTenants(bad); err == nil {
			t.Errorf("parseTenants(%q) accepted", bad)
		}
	}
}

func TestParseDegrade(t *testing.T) {
	steps, err := parseDegrade("0:8, 500:2,1000:0")
	if err != nil || len(steps) != 3 || steps[1].AfterMs != 500 || steps[1].Mbps != 2 {
		t.Errorf("parseDegrade = %v, %v", steps, err)
	}
	if steps, err := parseDegrade(""); err != nil || steps != nil {
		t.Errorf("empty spec: %v, %v", steps, err)
	}
	for _, bad := range []string{
		"200", "200:", ":2", "-1:2", "200:-2", "a:2", "200:b",
		"500:2,200:4", "200:2,200:4", // out of order / duplicate afterMs
		"NaN:2", "200:NaN", "Inf:2", "200:Inf", "200:+Inf", "200:-Inf",
	} {
		if _, err := parseDegrade(bad); err == nil {
			t.Errorf("parseDegrade(%q) accepted", bad)
		}
	}
}

// The observability mux serves Prometheus exposition, trace exports,
// and pprof — the surface -metrics-addr puts on the wire.
func TestObsMuxEndpoints(t *testing.T) {
	tr := obs.NewTracer(0)
	reg := obs.NewMetrics()
	o := runtime.NewObs(tr, reg)
	o.ServerJobs.Inc()
	o.Tracer.Record("server", "cloud-compute", 1, time.Now(), time.Now().Add(time.Millisecond))

	srv := httptest.NewServer(obsMux(tr, reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "jps_server_jobs_total 1") {
		t.Errorf("/metrics: code %d, body %q", code, body)
	}
	if code, body := get("/trace"); code != http.StatusOK || !strings.Contains(body, "traceEvents") {
		t.Errorf("/trace: code %d, body %q", code, body)
	}
	if code, body := get("/trace.json"); code != http.StatusOK || !strings.Contains(body, "cloud-compute") {
		t.Errorf("/trace.json: code %d, body %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
	}
}

// End-to-end over the same wiring main uses: start a listener, serve a
// model, classify a partitioned request from a real client.
func TestServeRoundTrip(t *testing.T) {
	g := models.MustBuild("squeezenet")
	const seed = 9
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer lis.Close()
	go func() { _ = runtime.NewServer(engine.Load(g, seed).Parallel(0)).Serve(lis) }()

	conn, err := net.DialTimeout("tcp", lis.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	cl := runtime.NewClient(conn, engine.Load(g, seed).Parallel(0), netsim.WiFi, 1e-6)

	in := tensor.New(tensor.NewCHW(3, 224, 224))
	for i := range in.Data {
		in.Data[i] = float32(i%31)/31 - 0.5
	}
	// Cut right after the input unit (cloud-only): the client does no
	// heavy compute, the server classifies — fast enough for a test
	// even on AlexNet.
	res, err := cl.RunJob(1, 0, in)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if res.Class < 0 || res.Class >= 1000 {
		t.Errorf("class = %d out of range", res.Class)
	}
	if res.CloudMs <= 0 {
		t.Errorf("server compute time = %v, want > 0", res.CloudMs)
	}
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

// flakyListener fails Accept with temporary errors before yielding
// real connections, then reports net.ErrClosed once closed (the stub of
// runtime's TestServeRetriesTemporaryAcceptErrors).
type flakyListener struct {
	tmpLeft int
	conns   chan net.Conn
	closed  chan struct{}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.tmpLeft > 0 {
		l.tmpLeft--
		return nil, tempErr{}
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}
func (l *flakyListener) Close() error   { close(l.closed); return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// Regression: with -downlink-mbps or a -fault-* flag jpsserve accepted
// by hand, without Server.Serve's retry, and exited on the first
// transient Accept error (EMFILE under fd pressure). Every flag
// combination must ride it out, serve the connection that follows
// through its wrapper, and return only when the listener closes.
func TestAcceptLoopRetriesTemporaryAcceptErrors(t *testing.T) {
	g := models.MustBuild("squeezenet")
	const seed = 9
	in := tensor.New(tensor.NewCHW(3, 224, 224))
	for i := range in.Data {
		in.Data[i] = float32(i%31)/31 - 0.5
	}
	dlCh := netsim.Channel{Name: "downlink", UplinkMbps: 1000}
	for _, tc := range []struct {
		name string
		cfg  serveConfig
	}{
		{"shaped", serveConfig{downMbps: dlCh.UplinkMbps}},
		// Fault mode on, at a probability that never fires in one job.
		{"fault", serveConfig{spec: netsim.FaultSpec{DropProb: 1e-12}, faultSeed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := runtime.NewServer(engine.Load(g, seed).Parallel(0))
			t.Cleanup(srv.Close)
			var wrapped atomic.Int32
			shapeDown := func(conn net.Conn) net.Conn {
				wrapped.Add(1)
				if tc.cfg.downMbps > 0 {
					return netsim.Shape(conn, dlCh, 1)
				}
				return conn
			}
			lis := &flakyListener{tmpLeft: 2, conns: make(chan net.Conn, 1), closed: make(chan struct{})}
			served := make(chan error, 1)
			go func() { served <- acceptLoop(srv, lis, shapeDown, tc.cfg) }()

			cConn, sConn := net.Pipe()
			lis.conns <- sConn
			cl := runtime.NewClient(cConn, engine.Load(g, seed).Parallel(0), netsim.WiFi, 1e-6)
			defer cl.Close()
			answered := make(chan error, 1)
			go func() {
				_, err := cl.RunJob(1, 0, in)
				answered <- err
			}()
			select {
			case err := <-answered:
				if err != nil {
					t.Fatalf("job after transient accept errors: %v", err)
				}
			case err := <-served:
				t.Fatalf("acceptLoop gave up on a transient accept error: %v", err)
			case <-time.After(30 * time.Second):
				t.Fatal("job was never answered")
			}
			if n := wrapped.Load(); n != 1 {
				t.Errorf("connection went through the wrapper %d times, want 1", n)
			}

			lis.Close()
			select {
			case err := <-served:
				if !errors.Is(err, net.ErrClosed) {
					t.Errorf("acceptLoop returned %v, want net.ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("acceptLoop did not return after listener close")
			}
		})
	}
}

// discardConn is a net.Conn whose writes land nowhere, at once.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestFaultWrapperKeepsDownlinkCap: with -downlink-mbps 80 and
// -fault-degrade 0:80 a reply crosses at 80 Mb/s, the rate both flags
// name. The injector is told the shaper's rate (WithNominal) and
// charges only what a cap below it adds; stacked blind, the two
// sleeps halve the rate and the wrapped write takes twice the shaped
// one. Both writes pace in real time, so the bound is their ratio, each
// side the fastest of three writes: a loaded host only ever adds time.
func TestFaultWrapperKeepsDownlinkCap(t *testing.T) {
	cfg := serveConfig{downMbps: 80, spec: netsim.FaultSpec{Degrade: []netsim.DegradeStep{{AfterMs: 0, Mbps: 80}}}}
	dlCh := netsim.Channel{Name: "downlink", UplinkMbps: cfg.downMbps}
	shapeDown := func(conn net.Conn) net.Conn { return netsim.Shape(conn, dlCh, 1) }
	payload := make([]byte, 512<<10) // ≈ 52 ms at 80 Mb/s
	timed := func(wrap func(net.Conn) net.Conn) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 3 {
			conn := wrap(discardConn{})
			start := time.Now()
			if _, err := conn.Write(payload); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	shaped := timed(shapeDown)
	wrapped := timed(connWrap(shapeDown, cfg))
	if r := float64(wrapped) / float64(shaped); r >= 1.5 {
		t.Errorf("fault-mode write took %v, %.2fx the shaper's %v alone: the injector paces on top of the shaper", wrapped, r, shaped)
	}
}
