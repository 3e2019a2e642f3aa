package main

import (
	"io"
	"net"
	"runtime"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/engine"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/netsim"
	"dnnjps/internal/nn"
	rt "dnnjps/internal/runtime"
	"dnnjps/internal/sim"
	"dnnjps/internal/tensor"
)

// Isolated layer probes: each calls one layer directly, away from the
// sockets and the other layers, so that a change in an end-to-end metric can
// be checked against the layer that is supposed to have caused it. Every
// timing is the best of a few repetitions, for the same reason round times
// are minima.

// bestMs is the fastest of n calls of fn, in ms, recorded as one span.
func bestMs(rec *recorder, parent int, name string, n int, fn func() error) (float64, error) {
	id := rec.begin(name, parent)
	defer rec.end(id)
	best := 0.0
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if ms := msSince(start); i == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

const engineReps = 10

// probeEngine times the workload's model: whole forward, the two sides of
// its cut, every node alone (summed by layer kind, and against the whole
// forward as a closure check), and the batched head where the server
// batches.
func probeEngine(inst *instance, rec *recorder, parent int, got map[string]float64) error {
	m := inst.model
	if m == nil {
		return nil
	}
	g := m.Graph()
	got["engine.load_ms"] = inst.loadMs
	got["engine.quantize_ms"] = inst.quantizeMs

	var err error
	acts := map[int]*tensor.Tensor{}
	got["engine.prefix_ms"], err = bestMs(rec, parent, "engine.prefix", engineReps, func() error {
		clear(acts)
		return m.Execute(acts, inst.input, inst.prefix)
	})
	if err != nil {
		return err
	}
	if len(inst.suffix) > 0 {
		exit := inst.prefix[len(inst.prefix)-1]
		boundary := acts[exit].Clone()
		got["engine.suffix_ms"], err = bestMs(rec, parent, "engine.suffix", engineReps, func() error {
			return m.Execute(map[int]*tensor.Tensor{exit: boundary}, nil, inst.suffix)
		})
		if err != nil {
			return err
		}
		if inst.batchMax > 1 {
			boundaries := make([]*tensor.Tensor, inst.batchMax)
			for i := range boundaries {
				boundaries[i] = boundary
			}
			batch, err := bestMs(rec, parent, "engine.batch", engineReps, func() error {
				packed, err := engine.PackBatch(boundaries)
				if err != nil {
					return err
				}
				return m.ExecuteBatch(map[int]*tensor.Tensor{exit: packed}, len(boundaries), nil, inst.suffix)
			})
			if err != nil {
				return err
			}
			got["engine.batch_ms_per_inference"] = batch / float64(len(boundaries))
		}
	}

	// Whole forward, then node by node with every predecessor's activation
	// kept in acts; engineReps passes over both, each timing the minimum
	// over passes, so that a noisy stretch of the host has to outlast all of
	// them to inflate either side of the closure check.
	clear(acts)
	topo := g.Topo()
	nodeMs := make([]float64, len(topo))
	forward := 0.0
	id := rec.begin("engine.forward_and_nodes", parent)
	defer rec.end(id)
	for pass := 0; pass < engineReps; pass++ {
		start := time.Now()
		if _, err := m.Forward(inst.input); err != nil {
			return err
		}
		if ms := msSince(start); pass == 0 || ms < forward {
			forward = ms
		}
		for i, node := range topo {
			if g.Node(node).Layer.Kind() == nn.KindInput {
				acts[node] = inst.input
				continue
			}
			start := time.Now()
			if err := m.Execute(acts, nil, []int{node}); err != nil {
				return err
			}
			if ms := msSince(start); pass == 0 || ms < nodeMs[i] {
				nodeMs[i] = ms
			}
		}
	}
	sum := 0.0
	for i, node := range topo {
		metric := "engine.other_ms"
		switch g.Node(node).Layer.Kind() {
		case nn.KindConv:
			metric = "engine.conv_ms"
		case nn.KindDense:
			metric = "engine.dense_ms"
		case nn.KindDepthwiseConv:
			metric = "engine.dwconv_ms"
		}
		got[metric] += nodeMs[i]
		sum += nodeMs[i]
	}
	got["engine.forward_ms"] = forward
	got["engine.gflops"] = g.TotalFLOPs() / (forward / 1000) / 1e9
	got["engine.units_over_forward"] = sum / forward
	return nil
}

// probeWire fits ping round trips on an unshaped loopback connection of its
// own to the workload's server: t = w0 + w1 * bytes.
func probeWire(inst *instance, rec *recorder, parent int, got map[string]float64) error {
	if inst.addr == "" {
		return nil
	}
	conn, err := net.Dial("tcp", inst.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	cl := rt.NewClient(conn, inst.model, loopback, 1)
	id := rec.begin("wire.ping", parent)
	defer rec.end(id)
	fit, err := cl.CalibrateComm([]int{1 << 10, 1 << 14, 1 << 16, 1 << 18}, 16)
	if err != nil {
		return err
	}
	got["wire.ping_w0_us"] = fit.W0 * 1000
	got["wire.ping_us_per_kb"] = fit.W1 * 1000 * 1024
	return nil
}

// probePacing writes 1 MiB through netsim.Shape at the workload's channel
// and scale into a discarding loopback peer, and reports achieved over
// nominal rate.
func probePacing(inst *instance, rec *recorder, parent int, got map[string]float64) error {
	if inst.scale == 0 {
		return nil
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		peer, err := lis.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		_, _ = io.Copy(io.Discard, peer) // ends when the writer closes
	}()
	defer func() {
		lis.Close()
		<-drained
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close() // runs before the wait above, and ends the peer's copy
	const total, piece = 1 << 20, 64 << 10
	shaped := netsim.Shape(conn, inst.wire, inst.scale)
	buf := make([]byte, piece)
	id := rec.begin("netsim.shape_write", parent)
	start := time.Now()
	for sent := 0; sent < total; sent += piece {
		if _, err := shaped.Write(buf); err != nil {
			return err
		}
	}
	took := time.Since(start).Seconds()
	rec.end(id)
	nominal := total / inst.wire.BytesPerSec() * inst.scale
	got["netsim.pacing_ratio"] = nominal / took
	return nil
}

const plannerReps = 5

// probePlanner times each planner entry point over the whole grid and
// reports the mean per cell, plus allocation counts and the exact sums of
// planned makespans (plan quality: a faster planner must not plan worse).
func probePlanner(inst *instance, rec *recorder, parent int, got map[string]float64) error {
	reqs := inst.grid
	if len(reqs) == 0 {
		return nil
	}
	cells := float64(len(reqs))
	outs := make([]planned, len(reqs))
	for i, rq := range reqs {
		var err error
		if outs[i], err = rq.serve(nil, 0); err != nil {
			return err
		}
		got["core.jps_model_ms_sum"] += outs[i].plan.Makespan
		got["core.chain_model_ms_sum"] += outs[i].chain.Makespan
	}
	// over times one planner call across the grid and reports it per cell,
	// scaled into the unit the metric names; allocs counts its heap objects
	// per cell. Both stop at the first error.
	var err error
	over := func(metric string, perMs float64, call func(i int, rq *planRequest) error) {
		if err != nil {
			return
		}
		var ms float64
		ms, err = bestMs(rec, parent, metric, plannerReps, func() error {
			for i, rq := range reqs {
				if err := call(i, rq); err != nil {
					return err
				}
			}
			return nil
		})
		got[metric] = ms * perMs / cells
	}
	allocs := func(metric string, call func(i int, rq *planRequest) error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, rq := range reqs {
			if err == nil {
				err = call(i, rq)
			}
		}
		runtime.ReadMemStats(&after)
		got[metric] = float64(after.Mallocs-before.Mallocs) / cells
	}
	jps := func(i int, _ *planRequest) error {
		_, err := core.JPS(outs[i].curve, gridJobs)
		return err
	}
	chain2 := func(_ int, rq *planRequest) error {
		_, err := core.JPSChain(rq.g, rq.chain, gridJobs)
		return err
	}
	over("profile.build_curve_us", 1000, func(_ int, rq *planRequest) error {
		rq.curve()
		return nil
	})
	over("core.jps_us", 1000, jps)
	over("core.replan_us", 1000, func(i int, rq *planRequest) error {
		_, err := core.Replan(outs[i].curve, rq.half, gridJobs)
		return err
	})
	over("core.jpsplus_ms", 1, func(i int, _ *planRequest) error {
		_, err := core.JPSPlus(outs[i].curve, gridJobs)
		return err
	})
	over("core.jpschain2_ms", 1, chain2)
	over("core.jpschain3_ms", 1, func(_ int, rq *planRequest) error {
		_, err := core.JPSChain(rq.g, rq.deeper(), gridJobs)
		return err
	})
	over("core.plan_general_ms", 1, func(_ int, rq *planRequest) error {
		_, err := core.PlanGeneral(rq.g, mobileDev, cloudDev, rq.ch, tensor.Float32, gridJobs, 0)
		return err
	})
	over("flowshop.johnson_us", 1000, func(i int, _ *planRequest) error {
		flowshop.Johnson(core.JobsForCuts(outs[i].curve, outs[i].plan.Cuts))
		return nil
	})
	over("flowshop.schedulem_us", 1000, func(i int, _ *planRequest) error {
		flowshop.ScheduleM(outs[i].chain.Sequence)
		return nil
	})
	over("sim.run_us", 1000, func(i int, _ *planRequest) error {
		p, c := outs[i].plan, outs[i].curve
		f, g, cloud := make([]float64, gridJobs), make([]float64, gridJobs), make([]float64, gridJobs)
		for pos, j := range p.Sequence {
			cut := p.Cuts[j.ID]
			f[pos], g[pos], cloud[pos] = c.F[cut], c.G[cut], c.CloudMs[cut]
		}
		_, err := sim.Run(sim.FromDurations(f, g, cloud))
		return err
	})
	allocs("core.jps_allocs", jps)
	allocs("core.jpschain2_allocs", chain2)
	return err
}
