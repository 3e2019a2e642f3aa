// Command jpsserve runs the cloud-side inference server: it loads the
// named model with a deterministic seed (clients must use the same
// seed so both sides hold identical weights) and serves partitioned
// inference requests over TCP. The engine picks its kernels itself, per
// GEMM shape; no flag selects one. -conc is the one core budget: -conc
// concurrent passes (default GOMAXPROCS), each GOMAXPROCS/-conc wide.
//
// Usage:
//
//	jpsserve -model mobilenetv2 -addr :7443 -seed 42
//
// The server batches by one rule, with no knob: a request runs its
// convolutional layers on its own and parks at the model's tail unit,
// and the fully connected tail of every request parked there within a
// 2 ms hold runs as one pass of up to 16, so a burst streams those
// weights once (float32 models with a dense head; see DESIGN.md
// "Cross-job batching"). -downlink-mbps paces the server's replies at a
// modeled downlink bandwidth, for end-to-end runs over symmetric
// low-band channels:
//
//	jpsserve -model mobilenetv2 -downlink-mbps 8
//
// Multi-tenant fleets arbitrate the shared worker pool with weighted
// fair queueing and bound overload with admission control (see
// DESIGN.md "Fleet-scale serving"):
//
//	jpsserve -model alexnet -tenants gold:2,bronze:1 -shed-watermark 48
//
// With -next-hop the server becomes a middle stage of a device chain
// instead of the terminal cloud: requests cut before -next-cut are
// computed up to that boundary and forwarded to the named downstream
// jpsserve over the same wire protocol (see DESIGN.md "k-way chains").
// A forwarding stage holds no job back: it parks no tail groups, and
// runs queued jobs of one cut through its middle segment four at a time:
//
//	jpsserve -model alexnet -addr :7444                      # terminal
//	jpsserve -model alexnet -next-hop :7444 -next-cut 5      # middle stage
//
// For fault-tolerance testing the server can degrade its own side of
// every accepted connection with the netsim fault injector, including
// a scripted bandwidth profile (comma-separated afterMs:mbps steps,
// the same schedules the adapt experiment runs — see netsim.StepDown
// and friends):
//
//	jpsserve -model alexnet -fault-drop 0.05 -fault-disc-bytes 1000000
//	jpsserve -model alexnet -fault-degrade 200:2          # step-down
//	jpsserve -model alexnet -fault-degrade 0:8,500:2,1000:0  # step chain
//
// With -metrics-addr the server exposes its observability surface on a
// second listener: Prometheus text metrics at /metrics, the recorded
// span buffer at /trace (Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto) and /trace.json (plain JSON), plus the
// standard pprof handlers under /debug/pprof/:
//
//	jpsserve -model alexnet -metrics-addr 127.0.0.1:9090
//
// On SIGINT/SIGTERM the server shuts down gracefully: the listener
// closes, every already-admitted job drains and gets its reply, and —
// when observability is attached — the final metrics snapshot is
// printed and the span buffer exported to -trace-out.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"

	"dnnjps/internal/engine"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/runtime"
)

func main() {
	var (
		model = flag.String("model", "alexnet", "model name: "+fmt.Sprint(models.Names()))
		addr  = flag.String("addr", "127.0.0.1:7443", "listen address")
		seed  = flag.Int64("seed", 42, "weight seed (must match the client)")
		conc  = flag.Int("conc", 0, "the server's one core budget: concurrent inferences server-wide (the one worker pool every connection shares), each pass GOMAXPROCS/conc goroutines wide (at least 1); 0 = GOMAXPROCS")

		downMbps = flag.Float64("downlink-mbps", 0, "pace replies at this modeled downlink bandwidth (0 = unshaped)")

		tenants  = flag.String("tenants", "", "comma-separated tenant:weight WFQ weights, e.g. gold:2,bronze:1 (unlisted tenants get weight 1)")
		shedMark = flag.Int("shed-watermark", 0, "queue depth at which new infer jobs are shed with a Class -1 reply; backpressure hints start at half this (0 = disabled)")

		nextHop = flag.String("next-hop", "", "forward work past -next-cut to this downstream jpsserve (host:port); turns this server into a middle chain stage (empty = terminal)")
		nextCut = flag.Int("next-cut", 0, "handoff unit boundary for -next-hop: this stage computes up to it, the next hop takes the rest")

		faultDrop    = flag.Float64("fault-drop", 0, "probability of dropping each frame in either direction")
		faultStall   = flag.Float64("fault-stall-p", 0, "probability of stalling each frame")
		stallMs      = flag.Float64("fault-stall-ms", 50, "stall duration in channel-model ms (with -fault-stall-p)")
		discBytes    = flag.Int64("fault-disc-bytes", 0, "kill each connection after this many bytes (0 = never)")
		faultDegrade = flag.String("fault-degrade", "", "scripted bandwidth profile as afterMs:mbps steps, e.g. 200:2 or 0:8,500:2,1000:0 (mbps 0 lifts the cap); applied to both directions of each accepted connection, clocked from its accept")
		faultSeed    = flag.Int64("fault-seed", 1, "fault injector RNG seed (per-connection offsets applied)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /trace, /trace.json and /debug/pprof/ on this address (empty = disabled)")
		traceOut    = flag.String("trace-out", "", "write the span buffer as Chrome trace JSON to this file on graceful shutdown (requires -metrics-addr; empty = skip)")
	)
	flag.Parse()
	weights, terr := parseTenants(*tenants)
	degrade, derr := parseDegrade(*faultDegrade)
	if err := errors.Join(terr, derr); err != nil {
		fmt.Fprintln(os.Stderr, "jpsserve:", err)
		os.Exit(2)
	}
	spec := netsim.FaultSpec{
		DropProb:             *faultDrop,
		StallProb:            *faultStall,
		StallMs:              *stallMs,
		DisconnectAfterBytes: *discBytes,
		Degrade:              degrade,
	}
	cfg := serveConfig{
		model: *model, addr: *addr, seed: *seed, conc: *conc,
		downMbps: *downMbps, tenants: weights, shedWatermark: *shedMark,
		nextHop: *nextHop, nextCut: *nextCut,
		spec: spec, faultSeed: *faultSeed,
		metricsAddr: *metricsAddr, traceOut: *traceOut,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "jpsserve:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a flag combination or value run refuses before it
// loads or listens; main exits 2 on it, as on a flag that does not parse.
type usageError struct{ error }

// flagConflict names the flags that cannot be combined as given, or a
// number out of its range (NaN included); run turns it into a
// usageError before anything is loaded.
func flagConflict(cfg serveConfig) error {
	nonNeg := func(v float64) bool { return v >= 0 && v <= math.MaxFloat64 } // false on NaN and +Inf
	prob := func(p float64) bool { return p >= 0 && p <= 1 }
	switch sp := cfg.spec; {
	case cfg.nextHop == "" && cfg.nextCut != 0:
		return fmt.Errorf("-next-cut requires -next-hop")
	case cfg.traceOut != "" && cfg.metricsAddr == "":
		return fmt.Errorf("-trace-out requires -metrics-addr: the span buffer it exports exists only with the metrics listener")
	case cfg.conc < 0:
		return fmt.Errorf("-conc %d: want 0 (GOMAXPROCS) or more", cfg.conc)
	case cfg.shedWatermark < 0:
		return fmt.Errorf("-shed-watermark %d: want 0 (disabled) or more", cfg.shedWatermark)
	case !nonNeg(cfg.downMbps):
		return fmt.Errorf("-downlink-mbps %g: want a finite rate, 0 or more", cfg.downMbps)
	case !prob(sp.DropProb):
		return fmt.Errorf("-fault-drop %g: want a probability in [0, 1]", sp.DropProb)
	case !prob(sp.StallProb):
		return fmt.Errorf("-fault-stall-p %g: want a probability in [0, 1]", sp.StallProb)
	case !nonNeg(sp.StallMs):
		return fmt.Errorf("-fault-stall-ms %g: want a finite duration, 0 or more", sp.StallMs)
	case sp.DisconnectAfterBytes < 0:
		return fmt.Errorf("-fault-disc-bytes %d: want 0 (never) or more", sp.DisconnectAfterBytes)
	}
	return nil
}

// parseDegrade parses "afterMs:mbps,afterMs:mbps" into a scripted
// bandwidth profile. Steps must be in increasing afterMs order, as
// netsim.FaultSpec requires; mbps 0 lifts the cap from that point on.
func parseDegrade(s string) ([]netsim.DegradeStep, error) {
	if s == "" {
		return nil, nil
	}
	var steps []netsim.DegradeStep
	for _, part := range strings.Split(s, ",") {
		at, ms, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("-fault-degrade: %q is not afterMs:mbps", part)
		}
		// ParseFloat accepts "NaN" and "Inf", and NaN compares false with
		// everything, so a plain `< 0` guard lets both through — require
		// finite explicitly.
		after, err := strconv.ParseFloat(at, 64)
		if err != nil || math.IsNaN(after) || math.IsInf(after, 0) || after < 0 {
			return nil, fmt.Errorf("-fault-degrade: %q needs a finite non-negative afterMs", part)
		}
		mbps, err := strconv.ParseFloat(ms, 64)
		if err != nil || math.IsNaN(mbps) || math.IsInf(mbps, 0) || mbps < 0 {
			return nil, fmt.Errorf("-fault-degrade: %q needs a finite non-negative mbps (0 lifts the cap)", part)
		}
		if n := len(steps); n > 0 && after <= steps[n-1].AfterMs {
			return nil, fmt.Errorf("-fault-degrade: steps must be in increasing afterMs order, got %g after %g", after, steps[n-1].AfterMs)
		}
		steps = append(steps, netsim.DegradeStep{AfterMs: after, Mbps: mbps})
	}
	return steps, nil
}

// parseTenants parses "name:weight,name:weight" into WFQ weights.
func parseTenants(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	weights := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		name, ws, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenants: %q is not name:weight", part)
		}
		// NaN <= 0 is false, so the positivity guard alone would admit a
		// NaN weight and poison every WFQ virtual-time comparison.
		w, err := strconv.ParseFloat(ws, 64)
		if err != nil || math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return nil, fmt.Errorf("-tenants: %q needs a finite positive weight", part)
		}
		if _, dup := weights[name]; dup {
			return nil, fmt.Errorf("-tenants: duplicate tenant %q", name)
		}
		weights[name] = w
	}
	return weights, nil
}

// obsMux builds the observability HTTP handler: Prometheus exposition,
// trace exports, and pprof.
func obsMux(tr *obs.Tracer, m *obs.Metrics) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", m.Handler())
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteChromeTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// coreBudget splits procs cores by -conc: pool concurrent passes (conc,
// or procs for 0), each width goroutines wide.
func coreBudget(conc, procs int) (pool, width int) {
	if conc == 0 {
		conc = procs
	}
	return conc, max(1, procs/conc)
}

type serveConfig struct {
	model         string
	addr          string
	seed          int64
	conc          int
	downMbps      float64
	tenants       map[string]float64
	shedWatermark int
	nextHop       string
	nextCut       int
	spec          netsim.FaultSpec
	faultSeed     int64
	metricsAddr   string
	traceOut      string
}

func run(cfg serveConfig) error {
	if err := flagConflict(cfg); err != nil {
		return usageError{err}
	}
	g, err := models.Build(cfg.model)
	if err != nil {
		return err
	}
	fmt.Printf("loading %s (seed %d)...\n", cfg.model, cfg.seed)
	// The paper's server is the fast machine: all cores, -conc passes at a
	// time. A wider pass splits each GEMM by its columns, two tile strips
	// a goroutine at least, or else by its rows (a lone job's dense layer).
	pool, width := coreBudget(cfg.conc, goruntime.GOMAXPROCS(0))
	m := engine.Load(g, cfg.seed).Parallel(width)
	lis, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// Whichever way run returns, the port is free again; the shutdown
	// path below closes it earlier, before the drain.
	defer lis.Close()
	srv := runtime.NewServer(m).WithWorkers(pool)
	if len(cfg.tenants) > 0 {
		fmt.Printf("tenant weights: %v\n", cfg.tenants)
		srv.WithTenants(cfg.tenants)
	}
	if cfg.shedWatermark > 0 {
		fmt.Printf("admission control: shed at queue depth %d, hints from %d\n",
			cfg.shedWatermark, max(1, cfg.shedWatermark/2))
		srv.WithShedWatermark(cfg.shedWatermark)
	}
	if cfg.nextHop != "" {
		if _, err := srv.WithNextHop(cfg.nextHop, cfg.nextCut); err != nil {
			return err
		}
		fmt.Printf("chain stage: computing up to unit %d, forwarding to %s\n", cfg.nextCut, cfg.nextHop)
	}
	// The server's writes are the client's downlink: pacing them models
	// reply bandwidth without the client's cooperation.
	shapeDown := func(conn net.Conn) net.Conn { return conn }
	if cfg.downMbps > 0 {
		fmt.Printf("downlink shaped to %.2f Mb/s\n", cfg.downMbps)
		dlCh := netsim.Channel{Name: "downlink", UplinkMbps: cfg.downMbps}
		shapeDown = func(conn net.Conn) net.Conn { return netsim.Shape(conn, dlCh, 1) }
	}
	var (
		tr  *obs.Tracer
		reg *obs.Metrics
	)
	if cfg.metricsAddr != "" {
		tr = obs.NewTracer(0)
		reg = obs.NewMetrics()
		srv.WithObs(runtime.NewObs(tr, reg))
		mlis, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Printf("metrics on http://%s/metrics (traces at /trace, pprof at /debug/pprof/)\n", mlis.Addr())
		go func() {
			if err := http.Serve(mlis, obsMux(tr, reg)); err != nil {
				fmt.Fprintln(os.Stderr, "jpsserve: metrics server:", err)
			}
		}()
	}
	fmt.Printf("serving %s on %s\n", cfg.model, lis.Addr())

	// The accept loop runs aside so the main goroutine can watch for
	// shutdown signals; on SIGINT/SIGTERM the listener closes (no new
	// connections), the scheduler drains every admitted job to its
	// reply, and the observability state is flushed before exit.
	serveErr := make(chan error, 1)
	go func() { serveErr <- acceptLoop(srv, lis, shapeDown, cfg) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Printf("received %v: draining admitted jobs...\n", s)
		lis.Close()
		srv.Close()
		flushObs(tr, reg, cfg.traceOut)
		fmt.Println("drained; bye")
		return nil
	case err := <-serveErr:
		srv.Close()
		return err
	}
}

// perConn is a listener whose Accept hands every connection through
// wrap, so Server.Serve — and its retry on transient accept errors —
// is the accept loop of every flag combination.
type perConn struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l perConn) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(conn), nil
}

// acceptLoop serves lis until it closes, each accepted connection
// wrapped as connWrap says.
func acceptLoop(srv *runtime.Server, lis net.Listener, shapeDown func(net.Conn) net.Conn, cfg serveConfig) error {
	return srv.Serve(perConn{lis, connWrap(shapeDown, cfg)})
}

// connWrap is what the flags make of an accepted connection: itself,
// behind the downlink shaper, and/or inside the fault injector.
func connWrap(shapeDown func(net.Conn) net.Conn, cfg serveConfig) func(net.Conn) net.Conn {
	if !(cfg.spec.DropProb > 0 || cfg.spec.StallProb > 0 ||
		cfg.spec.DisconnectAfterBytes > 0 || len(cfg.spec.Degrade) > 0) {
		return shapeDown
	}
	// Fault mode: the server side of the i-th accepted connection
	// suffers the configured drops, stalls and disconnects, drawn from
	// seed faultSeed+i. Serve accepts from one goroutine, so the count
	// needs no lock. The injector is told the rate the shaper already
	// paces writes at, so a -fault-degrade cap is the rate replies get,
	// not the series rate of the two.
	fmt.Printf("fault injection on: %+v (seed %d)\n", cfg.spec, cfg.faultSeed)
	seed := cfg.faultSeed - 1
	return func(conn net.Conn) net.Conn {
		seed++
		return netsim.Inject(shapeDown(conn), cfg.spec, cfg.spec, seed, 1).
			WithNominal(netsim.Channel{UplinkMbps: cfg.downMbps})
	}
}

// flushObs prints the final metrics snapshot and exports the span
// buffer; both are no-ops when observability was never attached.
func flushObs(tr *obs.Tracer, reg *obs.Metrics, traceOut string) {
	if reg != nil {
		fmt.Println("-- final metrics --")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "jpsserve: metrics flush:", err)
		}
	}
	if tr != nil && traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jpsserve: trace export:", err)
			return
		}
		defer f.Close()
		if err := tr.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "jpsserve: trace export:", err)
			return
		}
		fmt.Printf("trace written to %s\n", traceOut)
	}
}
