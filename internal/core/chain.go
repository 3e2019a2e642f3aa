package core

// k-way pipeline partitioning over an ordered device chain — the
// generalization past the paper's single mobile→cloud cut toward
// Parthasarathy-style multi-segment placement. A Chain is d devices
// joined by d-1 links; every job is split by k = d-1 non-decreasing
// cuts on the line view, so device 0 computes through cuts[0], link l
// carries the tensor at cuts[l], and device d-1 finishes. The
// scheduled pipeline is device-0 compute plus the k link
// transmissions: a (k+1)-machine permutation flow shop, sequenced as
// flowshop.ScheduleM sequences it. Intermediate and terminal device
// compute is validated, not scheduled — each hop has its own executor
// per job.
//
// Every multi-hop topology goes through this one planner. A 2-device
// chain IS the paper's two-tier problem (JPSChain delegates to JPS,
// reply pricing included). A 3-device chain is the fog-computing
// mobile→edge→cloud extension the paper cites through Mohammed et al.
// [15]; its plans are frozen bit-for-bit in chain_golden_test.go.

import (
	"fmt"
	"math"
	"slices"

	"dnnjps/internal/dag"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// Chain is an ordered offloading topology: Devices[0] holds the jobs,
// Links[l] connects Devices[l] to Devices[l+1].
type Chain struct {
	Devices []profile.Device
	Links   []netsim.Channel
	DType   tensor.DType
}

// TwoTierChain wraps the paper's mobile→cloud pair as a 1-link chain.
func TwoTierChain(mobile, cloud profile.Device, uplink netsim.Channel, dt tensor.DType) Chain {
	return Chain{
		Devices: []profile.Device{mobile, cloud},
		Links:   []netsim.Channel{uplink},
		DType:   dt,
	}
}

// Depth returns the number of cuts per job (= number of links).
func (c Chain) Depth() int { return len(c.Links) }

// Validate rejects chains the planner cannot price: too few devices,
// mismatched link count, and links checkLink rejects.
func (c Chain) Validate() error {
	if len(c.Devices) < 2 {
		return fmt.Errorf("core: chain needs >= 2 devices, got %d", len(c.Devices))
	}
	if len(c.Links) != len(c.Devices)-1 {
		return fmt.Errorf("core: chain with %d devices needs %d links, got %d",
			len(c.Devices), len(c.Devices)-1, len(c.Links))
	}
	for l, ch := range c.Links {
		if err := checkLink(ch); err != nil {
			return fmt.Errorf("core: chain link %d %w", l, err)
		}
	}
	return nil
}

// checkLink rejects a channel the planner cannot price: an uplink that
// is not a finite positive bandwidth, a setup latency that is not finite
// and non-negative, or a NaN or infinite downlink would price uploads
// +Inf, NaN or setup-only and still get a plan.
func checkLink(ch netsim.Channel) error {
	if !(ch.UplinkMbps > 0) || math.IsInf(ch.UplinkMbps, 1) {
		return fmt.Errorf("(%s) has unusable uplink bandwidth %g Mb/s", ch.Name, ch.UplinkMbps)
	}
	if !(ch.SetupMs >= 0) || math.IsInf(ch.SetupMs, 1) {
		return fmt.Errorf("(%s) has unusable setup latency %g ms", ch.Name, ch.SetupMs)
	}
	if math.IsNaN(ch.DownlinkMbps) || math.IsInf(ch.DownlinkMbps, 0) {
		return fmt.Errorf("(%s) has unusable downlink bandwidth %g Mb/s", ch.Name, ch.DownlinkMbps)
	}
	return nil
}

// ChainPlan is a joint k-cut partition plus m-machine schedule for n
// identical jobs.
type ChainPlan struct {
	Method string
	// Cuts[i] is job i's non-decreasing cut tuple (len = chain depth)
	// on the line view. Jobs with the same tuple share one slice, as
	// jobs of one kind share their Sequence stages: read them, do not
	// write them.
	Cuts     [][]int
	Sequence []flowshop.JobM
	Makespan float64
}

// AvgMs is Makespan / n; 0 for an empty plan (no jobs, no NaN).
func (p *ChainPlan) AvgMs() float64 {
	if len(p.Cuts) == 0 {
		return 0
	}
	return p.Makespan / float64(len(p.Cuts))
}

// chainCurves prices the model on every device and link from the one
// walk every curve is built from, profile.PriceUnits over the line view.
// Every transmission derives from its cut tensor volumes, so
// linkMs[l][i] is the time for the tensor at position i to cross link
// l, exactly 0 at the last position (zero-byte payload).
type chainCurves struct {
	// f[d][i]: cumulative compute ms through position i on device d —
	// the walk's per-unit times summed left to right, as in
	// profile.BuildCurve's F.
	f [][]float64
	// linkMs[l][i]: transmission ms of the tensor at position i over
	// link l (no reply leg — replies ride the last hop back and are
	// priced only by the two-tier special case).
	linkMs [][]float64
	pareto []int
	n      int
}

func buildChainCurves(g *dag.Graph, ch Chain) *chainCurves {
	units := profile.LineView(g)
	f, _, bytes := profile.PriceUnits(g, units, ch.Devices, ch.DType)
	for _, fd := range f {
		for i := 1; i < len(fd); i++ {
			fd[i] += fd[i-1]
		}
	}
	c := &chainCurves{f: f, linkMs: make([][]float64, len(ch.Links)), n: len(units)}
	c.pareto = (&profile.Curve{F: c.f[0], Bytes: bytes}).ParetoCuts()
	for l, link := range ch.Links {
		ms := make([]float64, c.n)
		for i, b := range bytes {
			ms[i] = link.TxMs(b)
		}
		c.linkMs[l] = ms
	}
	return c
}

// stagesFor prices one job's pipeline stages for a non-decreasing cut
// tuple: device-0 compute through cuts[0], then link l's transmission
// of the tensor at cuts[l]. Degenerate tuples need no special-casing:
// cuts[l-1] == cuts[l] means nothing runs on device l but the tensor
// still pays both adjacent hops, and any cut at the last position
// transmits zero bytes, hence exactly 0 ms (TestChainDegenerateGrid
// pins this).
func (c *chainCurves) stagesFor(cuts []int) []float64 {
	return c.stagesInto(make([]float64, len(cuts)+1), cuts)
}

// stagesInto is stagesFor into st, which has len(cuts)+1 entries.
func (c *chainCurves) stagesInto(st []float64, cuts []int) []float64 {
	st[0] = c.f[0][cuts[0]]
	for l, cut := range cuts {
		st[l+1] = c.linkMs[l][cut]
	}
	return st
}

// enumTuples yields every non-decreasing k-tuple over the Pareto
// candidates in lexicographic order (first cut outermost). The order
// decides peak-stage ties in JPSChain, so the golden plans depend on it.
func enumTuples(pareto []int, k int, visit func(cuts []int)) {
	cuts := make([]int, k)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == k {
			visit(cuts)
			return
		}
		for i := start; i < len(pareto); i++ {
			cuts[pos] = pareto[i]
			rec(pos+1, i)
		}
	}
	rec(0, 0)
}

// JPSChain jointly picks k cuts per job and an m-machine schedule for
// a chain. Depth 1 is the paper's exact problem and delegates to JPS
// (Alg. 2 + Thm 5.3 + Johnson, reply pricing included). Deeper chains
// have no closed-form balance point, so the search is direct:
// enumerate non-decreasing Pareto tuples, rank by peak stage (the
// asymptotic average-makespan driver), and mix the best two candidates
// across jobs at a few splits, in order (chainCurves.plan), each
// sequenced as flowshop.ScheduleM would unless its m-machine load bound
// (flowshop.LowerBoundM) says it cannot beat the best split so far —
// pruning that skips only splits that could not win, so the plan is
// the one every split sequenced would give. A split is two kinds in two
// runs, priced in place by flowshop.TwoKindScheduleM wherever CDS's
// order meets that bound, where ScheduleM stops; every split on the
// frozen grid does, so the winner's Sequence is the one job list built.
// O(C(p+k-1,k)) tuples over p Pareto cuts — model-sized p keeps this
// in milliseconds even at depth 4.
func JPSChain(g *dag.Graph, ch Chain, n int) (*ChainPlan, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: JPSChain needs n >= 1, got %d", n)
	}
	if ch.Depth() == 1 {
		curve := profile.BuildCurve(g, ch.Devices[0], ch.Devices[1], ch.Links[0], ch.DType)
		p, err := JPS(curve, n)
		if err != nil {
			return nil, err
		}
		return chainPlanFromTwoTier("JPS-chain", p), nil
	}
	return buildChainCurves(g, ch).plan(ch.Depth(), n), nil
}

// plan is JPSChain's search at depth k >= 2 on c. The splits repeat
// when n < 4, and with a single candidate — or two that price the same
// — every mix is the same instance; the strict < below keeps the first
// of equal makespans, so skipping repeats changes nothing. Nor does
// skipping a split whose load bound is >= the incumbent's makespan: the
// incumbent is an earlier split, and a later one must come in strictly
// shorter to displace it. A split TwoKindScheduleM cannot price (CDS
// misses its bound) is built and sequenced by ScheduleM.
func (c *chainCurves) plan(k, n int) *ChainPlan {
	best, second := c.bestTwo(k)
	mixes := []int{0, n / 4, n / 2, 3 * n / 4, n}
	if slices.Equal(best.stages, second.stages) {
		mixes = mixes[:1]
	}
	mixes = slices.Compact(mixes)
	kinds := [][]float64{second.stages, best.stages}
	var seq []flowshop.JobM // the winner's, where ScheduleM sequenced it
	span, at, secondFirst := 0.0, 0, true
	for i, mix := range mixes {
		bound := flowshop.LowerBoundM(kinds, []int{mix, n - mix})
		if i > 0 && bound >= span {
			continue
		}
		s, first, ok := flowshop.TwoKindScheduleM(second.stages, mix, best.stages, n-mix, bound)
		var sequenced []flowshop.JobM
		if !ok {
			sequenced = flowshop.ScheduleM(twoKindSequence(n, mix, true, second.stages, best.stages))
			s = flowshop.MakespanM(sequenced)
		}
		if i == 0 || s < span {
			seq, span, at, secondFirst = sequenced, s, mix, first
		}
	}
	if seq == nil {
		seq = twoKindSequence(n, at, secondFirst, second.stages, best.stages)
	}
	return &ChainPlan{
		Method:   "JPS-chain",
		Cuts:     tileCuts(n, at, second.cuts, best.cuts),
		Sequence: seq,
		Makespan: span,
	}
}

// twoKindSequence is n jobs, job i with x's stages for i < nx and y's
// after, in two blocks: ID order where xFirst, y's block first where
// not — the order ScheduleM returns where it stops at CDS. The stages
// are one copy of each kind in one backing array, each capped so an
// append cannot reach the other, as ScheduleM's own copy keeps them.
func twoKindSequence(n, nx int, xFirst bool, x, y []float64) []flowshop.JobM {
	flat := append(append(make([]float64, 0, len(x)+len(y)), x...), y...)
	x, y = flat[:len(x):len(x)], flat[len(x):]
	seq := make([]flowshop.JobM, n)
	for i := range seq {
		id := i
		if !xFirst {
			id = (i + nx) % n
		}
		seq[i] = flowshop.JobM{ID: id, Stages: y}
		if id < nx {
			seq[i].Stages = x
		}
	}
	return seq
}

// chainCand is one cut tuple priced as a pipeline job.
type chainCand struct {
	cuts   []int
	stages []float64
	peak   float64 // largest stage: the asymptotic average-makespan driver
}

// candidates prices every non-decreasing k-tuple over the Pareto cuts,
// in enumTuples order (ChainBruteForce's tuple set).
func (c *chainCurves) candidates(k int) []chainCand {
	var cands []chainCand
	enumTuples(c.pareto, k, func(cuts []int) {
		st := c.stagesFor(cuts)
		cands = append(cands, chainCand{cuts: slices.Clone(cuts), stages: st, peak: slices.Max(st)})
	})
	return cands
}

// bestTwo walks the non-decreasing k-tuples over the Pareto cuts in
// enumTuples order and returns the best and runner-up by peak stage —
// the pair JPSChain mixes. Every tuple is priced into one scratch
// vector; only one that takes either place is cloned. The tie-breaking
// is part of the frozen output (chain_golden_test.go pins it at k=2):
// a later tuple displaces the best or the runner-up only with a
// strictly smaller peak, except that the second tuple always fills the
// runner-up place; of a single tuple the runner-up is the best.
func (c *chainCurves) bestTwo(k int) (best, second chainCand) {
	st := make([]float64, k+1)
	i := 0
	enumTuples(c.pareto, k, func(cuts []int) {
		peak := slices.Max(c.stagesInto(st, cuts))
		take := func() chainCand {
			return chainCand{cuts: slices.Clone(cuts), stages: slices.Clone(st), peak: peak}
		}
		switch {
		case i == 0:
			best = take()
			second = best
		case peak < best.peak:
			second, best = best, take()
		case i == 1 || peak < second.peak:
			second = take()
		}
		i++
	})
	return best, second
}

// tileCuts is a plan's per-job cut tuples: the first mixAt jobs share
// second, the rest best, each row capped so an append cannot reach past
// its tuple.
func tileCuts(n, mixAt int, second, best []int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = best[:len(best):len(best)]
		if i < mixAt {
			out[i] = second[:len(second):len(second)]
		}
	}
	return out
}

// chainPlanFromTwoTier lifts a two-stage Plan into the chain shape:
// each cut becomes a 1-tuple, each Johnson job a 2-stage JobM. The
// makespan carries over unchanged (same recurrence, same floats).
func chainPlanFromTwoTier(method string, p *Plan) *ChainPlan {
	out := &ChainPlan{Method: method, Cuts: make([][]int, len(p.Cuts)), Makespan: p.Makespan}
	for i, cut := range p.Cuts {
		out.Cuts[i] = []int{cut}
	}
	out.Sequence = make([]flowshop.JobM, len(p.Sequence))
	for i, j := range p.Sequence {
		out.Sequence[i] = flowshop.JobM{ID: j.ID, Stages: []float64{j.A, j.B}}
	}
	return out
}

// OneCutChain is the single-cut baseline on a deep chain: one cut at
// device 0, the tensor crossing every link back to back, all
// intermediate devices pass-through — what a two-tier plan costs when
// the cloud sits behind extra hops. The three-tier and chain-depth
// experiments measure JPSChain against it.
func OneCutChain(g *dag.Graph, ch Chain, n int) (*ChainPlan, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: OneCutChain needs n >= 1, got %d", n)
	}
	c := buildChainCurves(g, ch)
	tuple := make([]int, ch.Depth())
	var best chainCand
	for i, lo := range c.pareto {
		for l := range tuple {
			tuple[l] = lo
		}
		st := c.stagesFor(tuple)
		if peak := slices.Max(st); i == 0 || peak < best.peak {
			best = chainCand{cuts: slices.Clone(tuple), stages: st, peak: peak}
		}
	}
	jobs := make([]flowshop.JobM, n)
	for i := range jobs {
		jobs[i] = flowshop.JobM{ID: i, Stages: best.stages}
	}
	plan := &ChainPlan{Method: "1cut-chain", Sequence: flowshop.CDSM(jobs)}
	plan.Cuts = tileCuts(n, 0, nil, best.cuts)
	plan.Makespan = flowshop.MakespanM(plan.Sequence)
	return plan, nil
}

// ChainBruteForce is the offline-optimal baseline (à la DOPart's MILP
// reference): enumerate every multiset of size n over the full
// non-decreasing Pareto tuple set, sequence each exhaustively when
// n <= 7 (else with ScheduleM, still exact over partitions), and keep
// the best. Exponential — the heuristic-gap experiments run it at
// small n/depth; maxCombos bounds the multisets visited (0 means
// 200_000) and ErrSearchSpaceTooLarge reports overflow.
func ChainBruteForce(g *dag.Graph, ch Chain, n, maxCombos int) (*ChainPlan, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: ChainBruteForce needs n >= 1, got %d", n)
	}
	if maxCombos <= 0 {
		maxCombos = 200_000
	}
	c := buildChainCurves(g, ch)
	tuples := c.candidates(ch.Depth()) // each priced once, shared by every multiset
	t := len(tuples)
	if multisetCount(n, t) > float64(maxCombos) {
		return nil, fmt.Errorf("%w: C(%d+%d-1,%d) > %d", ErrSearchSpaceTooLarge, n, t, n, maxCombos)
	}

	sequence := func(jobs []flowshop.JobM) []flowshop.JobM {
		if len(jobs) <= 7 {
			seq, _, _ := flowshop.BestPermutationM(jobs)
			return seq
		}
		return flowshop.ScheduleM(jobs)
	}

	var best *ChainPlan
	visited := 0
	err := eachMultiset(n, t, func(counts []int) error {
		if visited++; visited > maxCombos {
			return ErrSearchSpaceTooLarge
		}
		plan := &ChainPlan{Method: "BF-chain", Cuts: make([][]int, 0, n)}
		jobs := make([]flowshop.JobM, 0, n)
		for ti, cnt := range counts {
			for j := 0; j < cnt; j++ {
				plan.Cuts = append(plan.Cuts, tuples[ti].cuts)
				jobs = append(jobs, flowshop.JobM{ID: len(jobs), Stages: tuples[ti].stages})
			}
		}
		plan.Sequence = sequence(jobs)
		plan.Makespan = flowshop.MakespanM(plan.Sequence)
		if best == nil || plan.Makespan < best.Makespan {
			best = plan
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return best, nil
}
