package profile

import (
	"fmt"
	"math"
	"slices"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/regression"
	"dnnjps/internal/tensor"
)

// ReplyBytes is the on-the-wire size of the runtime's inference reply
// frame (type byte + 25-byte body incl. the admission-control flags
// byte + CRC). The profile layer cannot import internal/runtime
// (runtime builds on profile), so the value is duplicated here and
// pinned to runtime.ReplyWireBytes by a test in that package. It
// prices the downlink leg of every offloaded cut on channels that
// model reply bandwidth (Channel.DownlinkMbps > 0).
const ReplyBytes = 30

// Unit is one step of the line view of a graph: the articulation node
// every path crosses (Exit) together with the parallel-region interior
// nodes since the previous articulation. For a line DAG each unit is a
// single node; for MobileNet/ResNet each residual module collapses
// into one unit — exactly the paper's virtual-block treatment of
// bypass links (§6.1).
type Unit struct {
	// Nodes holds every node executed by this unit (interior + exit),
	// in topological order.
	Nodes []int
	// Exit is the articulation node whose output tensor crosses a cut
	// placed after this unit.
	Exit int
	// Label is the block label of the exit layer.
	Label string
}

// LineView collapses any single-source/single-sink DAG into a line of
// units delimited by its articulation nodes. A unit's nodes are the
// topological order's run up to its exit, so every unit's Nodes is a
// capped window of one copy of that order.
func LineView(g *dag.Graph) []Unit {
	arts := g.Articulations() // in topological order
	nodes := slices.Clone(g.Topo())
	units := make([]Unit, 0, len(arts))
	lo := 0
	for i, id := range nodes {
		if len(units) < len(arts) && id == arts[len(units)] {
			units = append(units, Unit{
				Nodes: nodes[lo : i+1 : i+1],
				Exit:  id,
				Label: models.BlockOf(g.Node(id).Layer.Name()),
			})
			lo = i + 1
		}
	}
	if lo != len(nodes) {
		panic("profile: sink is not an articulation node")
	}
	return units
}

// Curve holds the discrete per-cut latency functions of one model on
// one device pair and channel. Index i means "cut after unit i":
// index 0 is the input unit (cloud-only — upload the raw input),
// index len-1 is the sink unit (local-only — nothing uploaded). Its
// columns are not written once it is built: Reprice and Synthetic
// share every one but G with their source.
type Curve struct {
	Model   string
	Channel netsim.Channel
	// F is the cumulative mobile computation time in ms.
	F []float64
	// G is the communication time in ms of the cut: the upload of the
	// tensor crossing it (w0 + bytes/bandwidth) plus, on channels that
	// model the downlink, the reply frame's transit; 0 at the last
	// index.
	G []float64
	// CloudMs is the remaining cloud computation time in ms.
	CloudMs []float64
	// Bytes is the cut tensor volume.
	Bytes []int
	// Labels holds the block label of each unit's exit layer.
	Labels []string
}

// Len returns the number of cut positions.
func (c *Curve) Len() int { return len(c.F) }

// PriceUnits is the one walk that prices units on devices, and the only
// place a curve, block profile or chain looks a layer's time up: ms[d][i]
// is unit i's compute on devs[d], total[d] the same nodes summed one by
// one in run order (Device.TotalTimeMs over a LineView), and bytes[i]
// the tensor leaving unit i, 0 for the last, whose result stays put.
func PriceUnits(g *dag.Graph, units []Unit, devs []Device, dt tensor.DType) (ms [][]float64, total []float64, bytes []int) {
	ms = make([][]float64, len(devs))
	for d := range ms {
		ms[d] = make([]float64, len(units))
	}
	total = make([]float64, len(devs))
	bytes = make([]int, len(units))
	for i, u := range units {
		for d, dev := range devs {
			for _, id := range u.Nodes {
				t := dev.LayerTimeMs(g, id)
				ms[d][i] += t
				total[d] += t
			}
		}
		if i < len(units)-1 {
			bytes[i] = g.OutBytes(u.Exit, dt)
		}
	}
	return ms, total, bytes
}

// BuildCurve profiles a graph into its cut curve. The graph is viewed
// as a line of units (see LineView); general-structure models are
// thereby planned at virtual-block granularity, while Alg. 3 callers
// use per-path curves built with PathCurve.
func BuildCurve(g *dag.Graph, mobile, cloud Device, ch netsim.Channel, dt tensor.DType) *Curve {
	return curveOf(g.Name(), g, LineView(g), mobile, cloud, ch, dt)
}

// curveOf assembles the cut curve of units from one PriceUnits walk on
// mobile and cloud: F cumulates the mobile time unit by unit, CloudMs is
// what the cloud has left to run after each unit, G prices each cut.
func curveOf(model string, g *dag.Graph, units []Unit, mobile, cloud Device, ch netsim.Channel, dt tensor.DType) *Curve {
	ms, total, bytes := PriceUnits(g, units, []Device{mobile, cloud}, dt)
	c := &Curve{
		Model:   model,
		Channel: ch,
		F:       ms[0],
		G:       priceCuts(ch, bytes),
		CloudMs: ms[1],
		Bytes:   bytes,
		Labels:  make([]string, len(units)),
	}
	var cloudCum float64
	for i, u := range units {
		if i > 0 {
			c.F[i] += c.F[i-1]
		}
		cloudCum += c.CloudMs[i]
		// max with 0 absorbs float residue in the final positions.
		c.CloudMs[i] = max(total[1]-cloudCum, 0)
		c.Labels[i] = u.Label
	}
	return c
}

// priceCuts is the one g rule: a cut costs the upload of the tensor
// crossing it (w0 + bytes/bandwidth) plus, on channels that model the
// downlink, the reply frame's transit; a cut that ships nothing costs 0.
func priceCuts(ch netsim.Channel, bytes []int) []float64 {
	g := make([]float64, len(bytes))
	for i, b := range bytes {
		if b > 0 {
			g[i] = ch.TxMs(b) + ch.RxMs(ReplyBytes)
		}
	}
	return g
}

// ParetoCuts returns the candidate cut indices after virtual-block
// clustering (§3.2): a cut is kept only when its upload volume is
// strictly smaller than every earlier cut's, because a later cut with
// equal-or-larger volume costs more compute AND more communication and
// can never be optimal. The last index (local-only) is always kept.
// The result is sized once: one walk counts the kept cuts, a second
// fills them in.
func (c *Curve) ParetoCuts() []int {
	walk := func(keep func(i int)) {
		best := int(^uint(0) >> 1)
		for i := 0; i < c.Len(); i++ {
			if i == c.Len()-1 || c.Bytes[i] < best {
				keep(i)
				best = min(best, c.Bytes[i])
			}
		}
	}
	k := 0
	walk(func(int) { k++ })
	cuts := make([]int, 0, k)
	walk(func(i int) { cuts = append(cuts, i) })
	return cuts
}

// Restrict returns a copy of the curve containing only the given cut
// indices (typically ParetoCuts). Positions renumber contiguously;
// RestrictedIndex maps back via the returned slice.
func (c *Curve) Restrict(cuts []int) (*Curve, []int) {
	out := &Curve{
		Model:   c.Model,
		Channel: c.Channel,
		F:       make([]float64, len(cuts)),
		G:       make([]float64, len(cuts)),
		CloudMs: make([]float64, len(cuts)),
		Bytes:   make([]int, len(cuts)),
		Labels:  make([]string, len(cuts)),
	}
	idx := make([]int, len(cuts))
	for r, i := range cuts {
		if i < 0 || i >= c.Len() {
			panic(fmt.Sprintf("profile: restrict index %d out of range", i))
		}
		out.F[r], out.G[r], out.CloudMs[r] = c.F[i], c.G[i], c.CloudMs[i]
		out.Bytes[r], out.Labels[r], idx[r] = c.Bytes[i], c.Labels[i], i
	}
	return out, idx
}

// Reprice returns the curve with G recomputed from the cut tensor
// volumes at a new channel — the bandwidth-update hook for mid-run
// re-planning when the measured uplink diverges from the profiled one.
// F, CloudMs and Bytes are device properties and carry over unchanged.
func (c *Curve) Reprice(ch netsim.Channel) *Curve {
	return c.withG(c.Model, ch, priceCuts(ch, c.Bytes))
}

// withG is the curve under a new model name and channel with G
// replaced. F, CloudMs, Bytes and Labels are c's own slices, shared:
// nothing writes a curve's columns once it is built, and a plan keeps
// its curve, so a copy would be kept alive with every re-plan.
func (c *Curve) withG(model string, ch netsim.Channel, g []float64) *Curve {
	return &Curve{Model: model, Channel: ch, F: c.F, G: g, CloudMs: c.CloudMs, Bytes: c.Bytes, Labels: c.Labels}
}

// FInterp returns a piecewise-linear continuous extension of F over
// cut positions, for the Theorem 5.2 continuous-relaxation solver.
func (c *Curve) FInterp() *regression.Interpolator {
	return mustInterp(c.F)
}

// GInterp returns a piecewise-linear continuous extension of G.
func (c *Curve) GInterp() *regression.Interpolator {
	return mustInterp(c.G)
}

func mustInterp(ys []float64) *regression.Interpolator {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i)
	}
	it, err := regression.NewInterpolator(xs, ys)
	if err != nil {
		panic(fmt.Sprintf("profile: curve too short to interpolate: %v", err))
	}
	return it
}

// FitG fits the decreasing-convex exponential model of §3.2 to the
// positive interior of G (the paper's observation that offload volume
// halves per block). Returns an error when fewer than two positive
// samples exist.
func (c *Curve) FitG() (regression.Exponential, error) {
	var xs, ys []float64
	for i, g := range c.G {
		if g > 0 {
			xs = append(xs, float64(i))
			ys = append(ys, g)
		}
	}
	return regression.FitExponential(xs, ys)
}

// Synthetic returns a copy of the curve whose G values are replaced by
// samples of the fitted exponential — the paper's AlexNet′ (Fig. 11),
// used to show JPS is exactly optimal when g is truly convex.
func (c *Curve) Synthetic() (*Curve, error) {
	fit, err := c.FitG()
	if err != nil {
		return nil, err
	}
	g := make([]float64, c.Len())
	for i := 0; i < c.Len()-1; i++ {
		g[i] = fit.Eval(float64(i))
	}
	return c.withG(c.Model+"'", c.Channel, g), nil
}

// TotalMobileMs is the local-only latency of one job (f at the last
// cut).
func (c *Curve) TotalMobileMs() float64 { return c.F[c.Len()-1] }

// CloudOnlyMs is the cloud-only latency of one job: upload the raw
// input, then compute everything remotely.
func (c *Curve) CloudOnlyMs() float64 { return c.G[0] + c.CloudMs[0] }

// Validate checks the structural invariants the planner relies on:
// matching slice lengths, every F, G and CloudMs value finite (a NaN or
// ±Inf is named by its position), none negative, F non-decreasing, and
// G zero at the last position.
func (c *Curve) Validate() error {
	n := c.Len()
	if n < 2 {
		return fmt.Errorf("profile: curve for %s has %d positions, need >= 2", c.Model, n)
	}
	if len(c.G) != n || len(c.CloudMs) != n || len(c.Bytes) != n || len(c.Labels) != n {
		return fmt.Errorf("profile: curve for %s has mismatched slice lengths", c.Model)
	}
	for _, s := range [...]struct {
		name string
		vs   []float64
	}{{"F", c.F}, {"G", c.G}, {"CloudMs", c.CloudMs}} {
		for i, v := range s.vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("profile: curve for %s has non-finite %s[%d] = %v", c.Model, s.name, i, v)
			}
		}
	}
	for i := 0; i < n; i++ {
		if c.F[i] < 0 || c.G[i] < 0 || c.CloudMs[i] < 0 {
			return fmt.Errorf("profile: curve for %s has negative value at %d", c.Model, i)
		}
		if i > 0 && c.F[i] < c.F[i-1] {
			return fmt.Errorf("profile: curve for %s has decreasing F at %d", c.Model, i)
		}
	}
	if c.G[n-1] != 0 {
		return fmt.Errorf("profile: curve for %s must end with G=0 (local-only)", c.Model)
	}
	return nil
}
