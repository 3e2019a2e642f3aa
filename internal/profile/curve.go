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
	// tensor crossing it (w0 + bytes/bandwidth); 0 at the last index.
	// The reply, one small frame back, rides free, as in the paper.
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

// Table is units priced on devices, the one place a layer's time or a
// tensor's size is looked up: Ms[d][i] is unit i's compute on devs[d],
// Total[d] the same nodes summed one by one in run order
// (Device.TotalTimeMs over a LineView), and Bytes[i] the tensor leaving
// unit i, 0 for the last, whose result stays put. A curve, a block
// profile, a chain's columns and Alg. 3's replay are its views; a view
// that runs a row left to right (Cum) does so in place.
type Table struct {
	Units []Unit
	Ms    [][]float64
	Total []float64
	Bytes []int
}

// PriceUnits walks units on devs once into their Table.
func PriceUnits(g *dag.Graph, units []Unit, devs []Device, dt tensor.DType) Table {
	t := Table{Units: units, Ms: make([][]float64, len(devs)), Total: make([]float64, len(devs)), Bytes: make([]int, len(units))}
	for d, dev := range devs {
		t.Ms[d] = make([]float64, len(units))
		for i, u := range units {
			for _, id := range u.Nodes {
				ms := dev.LayerTimeMs(g, id)
				t.Ms[d][i] += ms
				t.Total[d] += ms
			}
		}
	}
	for i := 0; i < len(units)-1; i++ {
		t.Bytes[i] = g.OutBytes(units[i].Exit, dt)
	}
	return t
}

// Cum runs every device's row left to right, in place, and returns the
// rows: Ms[d][i] becomes the compute through unit i on devs[d].
func (t Table) Cum() [][]float64 {
	for _, row := range t.Ms {
		for i := 1; i < len(row); i++ {
			row[i] += row[i-1]
		}
	}
	return t.Ms
}

// CutMs prices every cut on ch by the one g rule, priceCuts.
func (t Table) CutMs(ch netsim.Channel) []float64 { return priceCuts(ch, t.Bytes) }

// Curve is the cut curve of a table priced on mobile then cloud, made
// from its rows in place: F is the mobile compute through each unit,
// CloudMs what the cloud has left to run after it, G each cut on ch.
func (t Table) Curve(model string, ch netsim.Channel) *Curve {
	cum := t.Cum()
	c := &Curve{
		Model:   model,
		Channel: ch,
		F:       cum[0],
		G:       t.CutMs(ch),
		CloudMs: cum[1],
		Bytes:   t.Bytes,
		Labels:  make([]string, len(t.Units)),
	}
	for i, u := range t.Units {
		// max with 0 absorbs float residue in the final positions.
		c.CloudMs[i] = max(t.Total[1]-c.CloudMs[i], 0)
		c.Labels[i] = u.Label
	}
	return c
}

// BuildCurve profiles a graph into its cut curve. The graph is viewed
// as a line of units (see LineView); general-structure models are
// thereby planned at virtual-block granularity, while Alg. 3 prices
// each path's own units (PathUnits).
func BuildCurve(g *dag.Graph, mobile, cloud Device, ch netsim.Channel, dt tensor.DType) *Curve {
	return PriceUnits(g, LineView(g), []Device{mobile, cloud}, dt).Curve(g.Name(), ch)
}

// priceCuts is the one g rule: a cut costs the upload of the tensor
// crossing it (netsim.Channel.TxMs: w0 + bytes/bandwidth, 0 when
// nothing ships).
func priceCuts(ch netsim.Channel, bytes []int) []float64 {
	g := make([]float64, len(bytes))
	for i, b := range bytes {
		g[i] = ch.TxMs(b)
	}
	return g
}

// ParetoCuts is the curve's candidate cut indices, read from its cut
// volumes (see ParetoCuts).
func (c *Curve) ParetoCuts() []int { return ParetoCuts(c.Bytes) }

// ParetoCuts returns the candidate cut indices of the cut volumes bytes
// after virtual-block clustering (§3.2): a cut is kept only when its
// upload volume is strictly smaller than every earlier cut's, because a
// later cut with equal-or-larger volume costs more compute AND more
// communication and can never be optimal. The last index (local-only)
// is always kept. The result is sized once: one walk counts the kept
// cuts, a second fills them in.
func ParetoCuts(bytes []int) []int {
	walk := func(keep func(i int)) {
		best := int(^uint(0) >> 1)
		for i, b := range bytes {
			if i == len(bytes)-1 || b < best {
				keep(i)
				best = min(best, b)
			}
		}
	}
	k := 0
	walk(func(int) { k++ })
	cuts := make([]int, 0, k)
	walk(func(i int) { cuts = append(cuts, i) })
	return cuts
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
