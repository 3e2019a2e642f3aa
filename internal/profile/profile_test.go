package profile

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

func alexCurve(t *testing.T, ch netsim.Channel) *Curve {
	t.Helper()
	g := models.MustBuild("alexnet")
	c := BuildCurve(g, RaspberryPi4(), CloudGPU(), ch, tensor.Float32)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return c
}

func TestLineViewLineGraph(t *testing.T) {
	g := models.MustBuild("alexnet")
	units := LineView(g)
	if len(units) != g.Len() {
		t.Errorf("line graph: %d units, want %d (one per node)", len(units), g.Len())
	}
	for _, u := range units {
		if len(u.Nodes) != 1 || u.Nodes[0] != u.Exit {
			t.Errorf("line unit must contain exactly its exit: %+v", u)
		}
	}
}

func TestLineViewMobileNetClustersBottlenecks(t *testing.T) {
	g := models.MustBuild("mobilenetv2")
	units := LineView(g)
	// Every node must appear exactly once across units.
	seen := make(map[int]int)
	for _, u := range units {
		for _, id := range u.Nodes {
			seen[id]++
		}
	}
	if len(seen) != g.Len() {
		t.Errorf("units cover %d nodes, want %d", len(seen), g.Len())
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("node %d appears %d times", id, n)
		}
	}
	// Residual modules collapse: strictly fewer units than nodes.
	if len(units) >= g.Len() {
		t.Error("MobileNet-v2 residual modules must cluster into units")
	}
	// A residual module's interior (bneck2 is the first stride-1 block
	// with matching channels, hence a bypass Add) must be inside a
	// multi-node unit ending at its add.
	add, ok := g.NodeByName("bneck2/add")
	if !ok {
		t.Fatal("bneck2/add missing")
	}
	var found bool
	for _, u := range units {
		if u.Exit == add.ID {
			found = true
			if len(u.Nodes) < 8 {
				t.Errorf("bneck2 unit has %d nodes, want the whole module", len(u.Nodes))
			}
		}
	}
	if !found {
		t.Error("bneck2/add is not a unit exit")
	}
}

func TestDeviceLayerTime(t *testing.T) {
	g := models.MustBuild("alexnet")
	pi := RaspberryPi4()
	conv1, _ := g.NodeByName("conv1/conv")
	got := pi.LayerTimeMs(g, conv1.ID)
	want := pi.LayerOverheadMs + conv1.FLOPs/pi.ThroughputFperMs[nn.KindConv]
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("conv1 time = %g, want %g", got, want)
	}
	// Zero-FLOP layers are free.
	in := g.Source()
	if pi.LayerTimeMs(g, in) != 0 {
		t.Error("input layer must be free")
	}
}

func TestDeviceCalibrationScale(t *testing.T) {
	g := models.MustBuild("alexnet")
	mobile := RaspberryPi4().TotalTimeMs(g)
	cloud := CloudGPU().TotalTimeMs(g)
	// Paper scale: AlexNet locally runs on the order of a second on
	// the PyTorch Pi client, single-digit ms on the GPU (Fig. 4a:
	// cloud time negligible).
	if mobile < 500 || mobile > 3000 {
		t.Errorf("mobile AlexNet = %.1fms, want O(1s)", mobile)
	}
	if cloud > 20 {
		t.Errorf("cloud AlexNet = %.1fms, want negligible", cloud)
	}
	if mobile/cloud < 50 {
		t.Errorf("mobile/cloud ratio = %.1f, want >> 1", mobile/cloud)
	}
}

func TestDeviceScaled(t *testing.T) {
	g := models.MustBuild("alexnet")
	pi := RaspberryPi4()
	fast := pi.Scaled(2)
	conv1, _ := g.NodeByName("conv1/conv")
	slow := pi.LayerTimeMs(g, conv1.ID) - pi.LayerOverheadMs
	quick := fast.LayerTimeMs(g, conv1.ID) - fast.LayerOverheadMs
	if math.Abs(slow-2*quick) > 1e-9 {
		t.Errorf("2x device should halve compute: %g vs %g", slow, quick)
	}
	for _, factor := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scaled(%g) must panic", factor)
				}
			}()
			pi.Scaled(factor)
		}()
	}
}

func TestCurveShapeProperties(t *testing.T) {
	c := alexCurve(t, netsim.WiFi)
	// F monotone increasing from 0.
	if c.F[0] != 0 {
		t.Errorf("F[0] = %g, want 0 (input unit is free)", c.F[0])
	}
	for i := 1; i < c.Len(); i++ {
		if c.F[i] < c.F[i-1] {
			t.Errorf("F decreases at %d", i)
		}
	}
	// G[0] is the raw input upload; G ends at 0.
	inputBytes := 3 * 224 * 224 * 4
	if c.Bytes[0] != inputBytes {
		t.Errorf("Bytes[0] = %d, want %d", c.Bytes[0], inputBytes)
	}
	if c.G[c.Len()-1] != 0 {
		t.Error("G must end at 0")
	}
	// CloudMs decreasing to 0.
	if c.CloudMs[c.Len()-1] != 0 {
		t.Errorf("CloudMs tail = %g, want 0", c.CloudMs[c.Len()-1])
	}
	for i := 1; i < c.Len(); i++ {
		if c.CloudMs[i] > c.CloudMs[i-1]+1e-9 {
			t.Errorf("CloudMs increases at %d", i)
		}
	}
}

func TestCurveTotals(t *testing.T) {
	c := alexCurve(t, netsim.WiFi)
	g := models.MustBuild("alexnet")
	if math.Abs(c.TotalMobileMs()-RaspberryPi4().TotalTimeMs(g)) > 1e-6 {
		t.Error("TotalMobileMs must equal device total")
	}
	wantCO := netsim.WiFi.TxMs(3*224*224*4) + CloudGPU().TotalTimeMs(g)
	if math.Abs(c.CloudOnlyMs()-wantCO) > 1e-6 {
		t.Errorf("CloudOnlyMs = %g, want %g", c.CloudOnlyMs(), wantCO)
	}
}

func TestParetoCuts(t *testing.T) {
	c := alexCurve(t, netsim.WiFi)
	cuts := c.ParetoCuts()
	if len(cuts) < 3 {
		t.Fatalf("too few Pareto cuts: %v", cuts)
	}
	// Bytes strictly decreasing along Pareto cuts (except final 0 which
	// is below everything anyway).
	for i := 1; i < len(cuts); i++ {
		if c.Bytes[cuts[i]] >= c.Bytes[cuts[i-1]] {
			t.Errorf("Pareto cut %d (bytes %d) not below %d (bytes %d)",
				cuts[i], c.Bytes[cuts[i]], cuts[i-1], c.Bytes[cuts[i-1]])
		}
	}
	// First cut is the input (cloud-only) and last is local-only.
	if cuts[0] != 0 || cuts[len(cuts)-1] != c.Len()-1 {
		t.Errorf("Pareto cuts must span cloud-only..local-only: %v", cuts)
	}
	// AlexNet conv3 increases volume over pool2; such positions must
	// be clustered away (the virtual-block rule).
	for _, i := range cuts[1:] {
		for j := 0; j < i; j++ {
			if c.Bytes[j] <= c.Bytes[i] && i != c.Len()-1 {
				t.Errorf("cut %d dominated by earlier position %d", i, j)
			}
		}
	}
}

// Restrict returns a copy of the curve containing only the given cut
// indices (typically ParetoCuts), renumbered contiguously, and the
// indices themselves. No planner reads a copy: Algorithm 2 and the
// Theorem 5.2 solver read the Pareto positions in place.
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

func TestRestrict(t *testing.T) {
	c := alexCurve(t, netsim.WiFi)
	cuts := c.ParetoCuts()
	r, idx := c.Restrict(cuts)
	if r.Len() != len(cuts) {
		t.Fatalf("restricted len = %d, want %d", r.Len(), len(cuts))
	}
	for i, orig := range idx {
		if r.F[i] != c.F[orig] || r.G[i] != c.G[orig] {
			t.Errorf("restricted entry %d mismatches original %d", i, orig)
		}
	}
	if err := r.Validate(); err != nil {
		t.Errorf("restricted curve invalid: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range restrict must panic")
		}
	}()
	c.Restrict([]int{c.Len()})
}

// Validate names a value no planner can price by field and position.
// The first four rows are curves the line planners once planned without
// an error (AlexNet, 4G): NaN F at 3 came back as a 28 021 ms plan at
// cut 3, at 22 as JPSPlus's makespan 0, NaN G at 3 as a NaN makespan,
// and +Inf F at 3 was refused only as "decreasing F" at 4.
func TestValidateRefusesNonFinite(t *testing.T) {
	for _, c := range []struct {
		field string
		at    int
		v     float64
		want  string
	}{
		{"F", 3, math.NaN(), "non-finite F[3] = NaN"},
		{"F", 22, math.NaN(), "non-finite F[22] = NaN"},
		{"G", 3, math.NaN(), "non-finite G[3] = NaN"},
		{"F", 3, math.Inf(1), "non-finite F[3] = +Inf"},
		{"G", 0, math.Inf(-1), "non-finite G[0] = -Inf"},
		{"CloudMs", 5, math.Inf(1), "non-finite CloudMs[5] = +Inf"},
		{"CloudMs", 0, math.NaN(), "non-finite CloudMs[0] = NaN"},
	} {
		curve := alexCurve(t, netsim.FourG)
		field := map[string][]float64{"F": curve.F, "G": curve.G, "CloudMs": curve.CloudMs}[c.field]
		field[c.at] = c.v
		err := curve.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s[%d] = %v: Validate() = %v, want it to say %q", c.field, c.at, c.v, err, c.want)
		}
	}
}

// FInterp and GInterp extend F and G piecewise-linearly over cut
// positions.
func (c *Curve) FInterp() polyline { return polyline(c.F) }
func (c *Curve) GInterp() polyline { return polyline(c.G) }

// polyline is the piecewise-linear function through (i, ys[i]),
// extended past either end with the end segment's slope.
type polyline []float64

func (p polyline) Eval(x float64) float64 {
	i := min(max(int(math.Ceil(x)), 1), len(p)-1)
	t := x - float64(i-1)
	return p[i-1] + t*(p[i]-p[i-1])
}

func TestInterpolators(t *testing.T) {
	c := alexCurve(t, netsim.WiFi)
	fi, gi := c.FInterp(), c.GInterp()
	for i := 0; i < c.Len(); i++ {
		if math.Abs(fi.Eval(float64(i))-c.F[i]) > 1e-9 {
			t.Errorf("FInterp(%d) = %g, want %g", i, fi.Eval(float64(i)), c.F[i])
		}
		if math.Abs(gi.Eval(float64(i))-c.G[i]) > 1e-9 {
			t.Errorf("GInterp(%d) mismatch", i)
		}
	}
}

func TestFitGAndSynthetic(t *testing.T) {
	c := alexCurve(t, netsim.WiFi)
	fit, err := c.FitG()
	if err != nil {
		t.Fatalf("FitG: %v", err)
	}
	if fit.B >= 0 {
		t.Errorf("fitted G must decay (B=%g)", fit.B)
	}
	syn, err := c.Synthetic()
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	if syn.Model != c.Model+"'" {
		t.Errorf("synthetic model name = %q", syn.Model)
	}
	if syn.G[syn.Len()-1] != 0 {
		t.Error("synthetic curve must keep G tail at 0")
	}
	// Synthetic G is strictly decreasing (a pure exponential).
	for i := 1; i < syn.Len()-1; i++ {
		if syn.G[i] >= syn.G[i-1] {
			t.Errorf("synthetic G not decreasing at %d", i)
		}
	}
	if err := syn.Validate(); err != nil {
		t.Errorf("synthetic invalid: %v", err)
	}
}

func TestBlockProfileAlexNet(t *testing.T) {
	g := models.MustBuild("alexnet")
	stats := BlockProfile(g, RaspberryPi4(), CloudGPU(), netsim.WiFi, tensor.Float32)
	// input + 5 conv blocks + 3 fc blocks = 9 rows.
	if len(stats) != 9 {
		var labels []string
		for _, s := range stats {
			labels = append(labels, s.Label)
		}
		t.Fatalf("blocks = %v, want 9", labels)
	}
	if stats[0].Label != "input" || stats[1].Label != "conv1" || stats[8].Label != "fc8" {
		t.Errorf("unexpected block order: %+v", stats)
	}
	// Fig. 4(a): cloud time negligible vs mobile for every block.
	for _, s := range stats[1:] {
		if s.CloudMs > s.MobileMs {
			t.Errorf("block %s: cloud %.2f > mobile %.2f", s.Label, s.CloudMs, s.MobileMs)
		}
	}
	// Last block ships nothing.
	last := stats[len(stats)-1]
	if last.CommMs != 0 || last.Bytes != 0 {
		t.Errorf("final block must not upload: %+v", last)
	}
}

func TestPathCurveGoogLeNet(t *testing.T) {
	g := models.MustBuild("googlenet")
	segs, err := g.Decompose(0)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	// Build a full path: articulations plus the first branch of each
	// parallel region.
	var path []int
	for _, s := range segs {
		if s.IsParallel() {
			path = append(path, s.Branches[0]...)
		} else {
			path = append(path, s.Node)
		}
	}
	c := PathCurve(g, path, RaspberryPi4(), CloudGPU(), netsim.WiFi, tensor.Float32)
	if err := c.Validate(); err != nil {
		t.Fatalf("path curve invalid: %v", err)
	}
	if c.Len() != len(path) {
		t.Errorf("path curve len = %d, want %d", c.Len(), len(path))
	}
}

func TestLookupTableRoundTrip(t *testing.T) {
	tab := NewLookupTable()
	for _, ch := range netsim.Presets() {
		tab.Put(alexCurve(t, ch))
	}
	if len(tab.Keys()) != 3 {
		t.Fatalf("keys = %v", tab.Keys())
	}
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadLookupTable(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	c, ok := got.Get("alexnet", "Wi-Fi")
	if !ok {
		t.Fatalf("missing entry; keys = %v", got.Keys())
	}
	want, _ := tab.Get("alexnet", "Wi-Fi")
	if c.Len() != want.Len() || c.F[3] != want.F[3] || c.Bytes[0] != want.Bytes[0] {
		t.Error("round-tripped curve differs")
	}
}

func TestLoadLookupTableRejectsInvalid(t *testing.T) {
	if _, err := LoadLookupTable(bytes.NewBufferString(`{"entries":{"x@y":{"Model":"x","F":[0,1],"G":[1,1],"CloudMs":[0,0],"Bytes":[1,0],"Labels":["a","b"]}}}`)); err == nil {
		t.Error("curve with nonzero G tail must be rejected")
	}
	if _, err := LoadLookupTable(bytes.NewBufferString(`not json`)); err == nil {
		t.Error("malformed JSON must error")
	}
	got, err := LoadLookupTable(bytes.NewBufferString(`{}`))
	if err != nil || got.Entries == nil {
		t.Error("empty table must load with non-nil map")
	}
}

// Across the whole zoo: curves validate and Pareto cuts obey the
// virtual-block dominance rule.
func TestZooCurves(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		for _, ch := range netsim.Presets() {
			c := BuildCurve(g, RaspberryPi4(), CloudGPU(), ch, tensor.Float32)
			if err := c.Validate(); err != nil {
				t.Errorf("%s@%s: %v", name, ch.Name, err)
			}
			cuts := c.ParetoCuts()
			if len(cuts) < 2 {
				t.Errorf("%s@%s: degenerate Pareto cuts %v", name, ch.Name, cuts)
			}
		}
	}
}

// BuildCurve sizes nothing itself: every node's FLOPs were stored by
// Finalize, and so was the articulation list, so a curve allocates its
// line view, its price tables and the Curve. The counts are exact and
// repeat run to run; sizing each node per device per curve made them
// 133, 621, 720 and 326, a line view with a node slice per unit and a
// map of its articulations 47, 55, 114 and 52, and an articulation sweep
// per line view 17, 17, 19 and 17.
func TestBuildCurveAllocs(t *testing.T) {
	for _, c := range []struct {
		model string
		want  float64
	}{
		{"alexnet", 10},
		{"googlenet", 10},
		{"mobilenetv2", 10},
		{"resnet18", 10},
	} {
		g := models.MustBuild(c.model)
		pi, gpu := RaspberryPi4(), CloudGPU()
		got := testing.AllocsPerRun(5, func() {
			BuildCurve(g, pi, gpu, netsim.FourG, tensor.Float32)
		})
		if got != c.want {
			t.Errorf("BuildCurve(%s, 4G) = %.0f allocs/run, want %.0f", c.model, got, c.want)
		}
	}
}

// PathCurve is one path's cut curve, as Alg. 3 prices it: F cumulates
// the path's own nodes (the scheduler deduplicates shared prefixes
// later, per the paper's modified Alg. 1); G is the upload time of the
// i-th node's tensor.
func PathCurve(g *dag.Graph, path []int, mobile, cloud Device, ch netsim.Channel, dt tensor.DType) *Curve {
	return PriceUnits(g, PathUnits(g, path), []Device{mobile, cloud}, dt).Curve(g.Name()+"/path", ch)
}
