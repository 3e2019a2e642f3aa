//go:build ignore

// Multi-client end-to-end smoke driver for scripts/check.sh: dials N
// independent TCP connections to a running jpsserve, each with its own
// tenant ID, runs a burst of cloud-only jobs per connection, and
// requires every reply to carry a plausible class and a positive
// server compute time. With -general each connection instead plans the
// model with Algorithm 3 (core.PlanGeneral) and runs the plan through
// Client.RunGeneralPlan — boundary sets against the real binary —
// requiring every class to equal a local forward pass. With -runner one
// connection at a time runs one plan of -jobs jobs at -cut through the
// fault-tolerant runtime.Runner, one job in flight, against a server
// that cuts its connections (jpsserve -fault-disc-bytes): every class
// must equal a local forward and the run must have redialed. Run with:
//
//	go run scripts/e2e_client.go -addr 127.0.0.1:7443 -model squeezenet
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/engine"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/runtime"
	"dnnjps/internal/tensor"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7443", "jpsserve address")
		model   = flag.String("model", "squeezenet", "model name (must match the server)")
		seed    = flag.Int64("seed", 42, "weight seed (must match the server)")
		clients = flag.Int("clients", 4, "concurrent client connections")
		jobs    = flag.Int("jobs", 4, "jobs per connection")
		cut     = flag.Int("cut", 0, "partition point: units computed locally before offloading (0 = cloud-only)")
		general = flag.Bool("general", false, "plan with Algorithm 3 and run the plan's cut-node sets (ignores -cut)")
		runner  = flag.Bool("runner", false, "run one plan at -cut through runtime.Runner and require a reconnect (ignores -clients)")
	)
	flag.Parse()
	var err error
	if *runner {
		*clients = 1
		err = runRunner(*addr, *model, *seed, *jobs, *cut)
	} else {
		err = run(*addr, *model, *seed, *clients, *jobs, *cut, *general)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e_client:", err)
		os.Exit(1)
	}
	fmt.Printf("e2e smoke ok: %d clients x %d jobs against %s\n", *clients, *jobs, *addr)
}

func run(addr, model string, seed int64, clients, jobs, cut int, general bool) error {
	m, in, err := load(model, seed)
	if err != nil {
		return err
	}
	g := m.Graph()
	var gp *core.GeneralPlan
	var inputs []*tensor.Tensor
	wantClass := -1
	if general {
		// 4G makes the planner mix cuts: some jobs ship a true boundary
		// set, some a single unit exit (which goes out as a line job).
		gp, err = core.PlanGeneral(g, profile.RaspberryPi4(), profile.CloudGPU(), netsim.FourG, tensor.Float32, jobs, 0)
		if err != nil {
			return err
		}
		out, err := m.Forward(in.Clone())
		if err != nil {
			return err
		}
		wantClass = engine.Argmax(out)
		for j := 0; j < jobs; j++ {
			inputs = append(inputs, in)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", c, err)
				return
			}
			defer conn.Close()
			cl := runtime.NewClient(conn, m, netsim.WiFi, 1e-6).
				WithTenant(fmt.Sprintf("smoke-%d", c))
			if general {
				rep, err := cl.RunGeneralPlan(gp, inputs)
				if err != nil {
					errs <- fmt.Errorf("client %d: general plan: %w", c, err)
					return
				}
				sets := 0
				for _, res := range rep.Results {
					if res.Class != wantClass {
						errs <- fmt.Errorf("client %d job %d: class %d (shed %v), local forward says %d",
							c, res.JobID, res.Class, res.Shed, wantClass)
						return
					}
					if res.Cut < 0 {
						sets++
					}
				}
				if sets == 0 {
					errs <- fmt.Errorf("client %d: no job of the plan shipped a boundary set; -general needs a model whose Algorithm 3 plan has one (resnet18, googlenet)", c)
				}
				return
			}
			// Cut 0 (the default) offloads at the input unit: the client
			// does no heavy compute, and every connection exercises the
			// server's full suffix path concurrently. A nonzero -cut runs
			// that prefix locally first — the chain smoke uses it to push
			// traffic through a forwarding stage's mid-segment path.
			for j := 0; j < jobs; j++ {
				res, err := cl.RunJob(j, cut, in)
				if err != nil {
					errs <- fmt.Errorf("client %d job %d: %w", c, j, err)
					return
				}
				if res.Class < 0 || res.Class >= 1000 {
					errs <- fmt.Errorf("client %d job %d: class %d out of range", c, j, res.Class)
					return
				}
				if res.CloudMs <= 0 {
					errs <- fmt.Errorf("client %d job %d: server compute %.3fms", c, j, res.CloudMs)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// load builds the model the server serves and the input every job
// feeds.
func load(model string, seed int64) (*engine.Model, *tensor.Tensor, error) {
	g, err := models.Build(model)
	if err != nil {
		return nil, nil, err
	}
	units := profile.LineView(g)
	in := tensor.New(g.Node(units[0].Exit).OutShape)
	for i := range in.Data {
		in.Data[i] = float32(i%31)/31 - 0.5
	}
	return engine.Load(g, seed), in, nil
}

// runRunner runs one plan of jobs jobs, all cut at cut, through a
// Runner that redials on every failure. The window is one job: with
// more in flight a burst of large uploads can cross a server's
// disconnect budget before any reply comes back, and no attempt would
// make progress. Falling back to local compute is off, so only the
// network path can finish the plan.
func runRunner(addr, model string, seed int64, jobs, cut int) error {
	m, in, err := load(model, seed)
	if err != nil {
		return err
	}
	out, err := m.Forward(in.Clone())
	if err != nil {
		return err
	}
	want := engine.Argmax(out)
	plan := &core.Plan{Cuts: make([]int, jobs), Sequence: make([]flowshop.Job, jobs)}
	inputs := make([]*tensor.Tensor, jobs)
	for j := range inputs {
		plan.Cuts[j], plan.Sequence[j], inputs[j] = cut, flowshop.Job{ID: j}, in
	}
	dial := func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }
	opts := runtime.DefaultRunOptions()
	opts.Window, opts.NoLocalFallback, opts.MaxReconnects = 1, true, 4*jobs
	rep, err := runtime.NewRunner(dial, m, netsim.WiFi, 1e-6, opts).RunPlan(plan, inputs)
	if err != nil {
		return err
	}
	for _, res := range rep.Results {
		if res.Class != want {
			return fmt.Errorf("runner job %d: class %d (shed %v), local forward says %d", res.JobID, res.Class, res.Shed, want)
		}
	}
	if rep.Reconnects == 0 {
		return fmt.Errorf("runner: no reconnect in %d jobs; start the server with -fault-disc-bytes", jobs)
	}
	fmt.Printf("runner: %d jobs, %d reconnects, %d retried\n", jobs, rep.Reconnects, rep.RetriedJobs)
	return nil
}
