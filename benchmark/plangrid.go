package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// gridJobs is the batch size every planning request plans for (the paper's
// n = 100).
const gridJobs = 100

var (
	gridModels   = []string{"alexnet", "mobilenetv2", "resnet18", "googlenet"}
	gridChannels = []netsim.Channel{netsim.FourG, netsim.WiFi}
)

// planRequest is one cell of the grid: a model on a channel, with the
// 3-device chain built on that channel and the bounds its plans must meet.
type planRequest struct {
	g     *dag.Graph
	ch    netsim.Channel
	half  netsim.Channel // ch at half bandwidth, the replan target
	chain core.Chain     // mobile -> quarter-speed edge -> cloud over a half-rate WAN

	limit, halfLimit float64 // min(PO, CO, LO) makespan at ch and at half
	chainLimit       float64 // best single cut on the chain
}

// planned is what one request produces.
type planned struct {
	curve  *profile.Curve
	plan   *core.Plan
	replan *core.Plan
	chain  *core.ChainPlan
}

// serve runs the request's four planner calls, each under its own span.
func (rq *planRequest) serve(rec *recorder, parent int) (planned, error) {
	var out planned
	var err error
	rec.call("profile.build_curve", parent, func() { out.curve = rq.curve() })
	rec.call("core.jps", parent, func() { out.plan, err = core.JPS(out.curve, gridJobs) })
	if err != nil {
		return out, err
	}
	rec.call("core.replan", parent, func() { out.replan, err = core.Replan(out.curve, rq.half, gridJobs) })
	if err != nil {
		return out, err
	}
	rec.call("core.jps_chain", parent, func() { out.chain, err = core.JPSChain(rq.g, rq.chain, gridJobs) })
	return out, err
}

func (rq *planRequest) curve() *profile.Curve {
	return profile.BuildCurve(rq.g, mobileDev, cloudDev, rq.ch, tensor.Float32)
}

// deeper is the request's chain with a half-speed regional tier between edge
// and cloud: 4 devices, 3 cuts per job.
func (rq *planRequest) deeper() core.Chain {
	d, l := rq.chain.Devices, rq.chain.Links
	return core.Chain{
		Devices: []profile.Device{d[0], d[1], cloudDev.Scaled(0.5), d[2]},
		Links:   []netsim.Channel{l[0], l[1], l[1]},
		DType:   rq.chain.DType,
	}
}

// violations counts the oracle conditions the request's plans break.
func (rq *planRequest) violations(p planned) int {
	n := 0
	for _, c := range []struct {
		plan  *core.Plan
		limit float64
	}{{p.plan, rq.limit}, {p.replan, rq.halfLimit}} {
		if checkPlan(c.plan, c.limit) != nil {
			n++
		}
	}
	if checkChainPlan(p.chain, rq.chainLimit) != nil {
		n++
	}
	return n
}

func newPlanRequest(g *dag.Graph, ch netsim.Channel) (*planRequest, error) {
	rq := &planRequest{g: g, ch: ch, half: ch}
	rq.half.UplinkMbps = ch.UplinkMbps / 2
	rq.chain = core.Chain{
		Devices: []profile.Device{mobileDev, cloudDev.Scaled(0.25), cloudDev},
		Links:   []netsim.Channel{ch, {Name: "wan-backhaul", UplinkMbps: ch.UplinkMbps / 2, SetupMs: 15}},
		DType:   tensor.Float32,
	}
	curve := rq.curve()
	var err error
	if rq.limit, err = baselineLimit(curve, gridJobs); err != nil {
		return nil, err
	}
	if rq.halfLimit, err = baselineLimit(curve.Reprice(rq.half), gridJobs); err != nil {
		return nil, err
	}
	one, err := core.OneCutChain(g, rq.chain, gridJobs)
	if err != nil {
		return nil, err
	}
	rq.chainLimit = one.Makespan
	return rq, nil
}

func buildPlanGrid(seed int64, _ bool) (*instance, error) {
	var reqs []*planRequest
	for _, name := range gridModels {
		g, err := models.Build(name)
		if err != nil {
			return nil, err
		}
		for _, ch := range gridChannels {
			rq, err := newPlanRequest(g, ch)
			if err != nil {
				return nil, fmt.Errorf("%s at %s: %w", name, ch.Name, err)
			}
			reqs = append(reqs, rq)
		}
	}
	// The planner's inputs are models and channels, not tensors: the seed
	// fixes the order the requests arrive in.
	order := append([]*planRequest(nil), reqs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	inst := &instance{jobs: len(reqs), close: func() {}, grid: reqs}
	outs := make([]planned, len(order))
	inst.round = func(rec *recorder, parent int) ([]float64, int, error) {
		// One goroutine serves the requests one after another, so each is a
		// part of the round with a best time of its own.
		parts := make([]float64, len(order))
		for i, rq := range order {
			start := time.Now()
			var err error
			if outs[i], err = rq.serve(rec, parent); err != nil {
				return nil, 0, err
			}
			parts[i] = msSince(start)
		}
		failed := 0
		for i, rq := range order {
			if rq.violations(outs[i]) > 0 {
				failed++
			}
		}
		return parts, failed, nil
	}
	return inst, nil
}

// baselineLimit is the makespan a joint plan may not exceed: the best of the
// partition-only, cloud-only and local-only baselines on the same curve.
func baselineLimit(c *profile.Curve, n int) (float64, error) {
	limit := math.Inf(1)
	for _, baseline := range []func(*profile.Curve, int) (*core.Plan, error){core.PO, core.CO, core.LO} {
		p, err := baseline(c, n)
		if err != nil {
			return 0, err
		}
		limit = math.Min(limit, p.Makespan)
	}
	return limit, nil
}

// checkPlan is the plan oracle: the recorded makespan is the recurrence's
// makespan of the recorded sequence exactly, equals Prop 4.1's closed form
// to 1e-9 relative, and does not exceed the baseline limit.
func checkPlan(p *core.Plan, limit float64) error {
	if got := flowshop.Makespan(p.Sequence); got != p.Makespan {
		return fmt.Errorf("%s plan: makespan %v, its sequence gives %v", p.Method, p.Makespan, got)
	}
	if f := flowshop.FormulaMakespan(p.Sequence); math.Abs(f-p.Makespan) > 1e-9*p.Makespan {
		return fmt.Errorf("%s plan: makespan %v, Prop 4.1 closed form %v", p.Method, p.Makespan, f)
	}
	if p.Makespan > limit {
		return fmt.Errorf("%s plan: makespan %v exceeds the best of PO, CO, LO %v", p.Method, p.Makespan, limit)
	}
	return nil
}

func checkChainPlan(p *core.ChainPlan, limit float64) error {
	if got := flowshop.MakespanM(p.Sequence); got != p.Makespan {
		return fmt.Errorf("%s chain plan: makespan %v, its sequence gives %v", p.Method, p.Makespan, got)
	}
	if p.Makespan > limit {
		return fmt.Errorf("%s chain plan: makespan %v exceeds the best single cut %v", p.Method, p.Makespan, limit)
	}
	return nil
}
