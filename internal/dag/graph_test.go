package dag

import (
	"strings"
	"testing"

	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// lineGraph builds input -> conv -> pool -> dense, a minimal line DNN.
func lineGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("tiny")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(3, 32, 32)})
	c := g.Add(&nn.Conv2D{LayerName: "conv", OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, in)
	p := g.Add(nn.NewMaxPool2D("pool", 2, 2, 0), c)
	g.Add(&nn.Dense{LayerName: "fc", Out: 10}, p)
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

// fig9Graph reproduces the paper's Fig. 9(a) example DAG:
//
//	v0 -> v1 -> {v2, v3} -> v4 -> v7
//	v0 -> v5 -> v6 -> v7
func fig9Graph(t *testing.T) *Graph {
	t.Helper()
	s := tensor.NewCHW(4, 8, 8)
	g := New("fig9")
	v0 := g.Add(&nn.Input{LayerName: "v0", Shape: s})
	v1 := g.Add(nn.NewActivation("v1", nn.ReLU), v0)
	v2 := g.Add(nn.NewActivation("v2", nn.ReLU), v1)
	v3 := g.Add(nn.NewActivation("v3", nn.ReLU), v1)
	v4 := g.Add(&nn.Add{LayerName: "v4"}, v2, v3)
	v5 := g.Add(nn.NewActivation("v5", nn.ReLU), v0)
	v6 := g.Add(nn.NewActivation("v6", nn.ReLU), v5)
	g.Add(&nn.Add{LayerName: "v7"}, v4, v6)
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

func TestFinalizeInfersShapes(t *testing.T) {
	g := lineGraph(t)
	conv, _ := g.NodeByName("conv")
	if !conv.OutShape.Equal(tensor.NewCHW(8, 32, 32)) {
		t.Errorf("conv shape = %v", conv.OutShape)
	}
	pool, _ := g.NodeByName("pool")
	if !pool.OutShape.Equal(tensor.NewCHW(8, 16, 16)) {
		t.Errorf("pool shape = %v", pool.OutShape)
	}
	fc, _ := g.NodeByName("fc")
	if !fc.OutShape.Equal(tensor.NewVec(10)) {
		t.Errorf("fc shape = %v", fc.OutShape)
	}
}

func TestLineDetection(t *testing.T) {
	if !lineGraph(t).IsLine() {
		t.Error("line graph not detected as line")
	}
	if fig9Graph(t).IsLine() {
		t.Error("fig9 graph wrongly detected as line")
	}
}

func TestSourceSinkTopo(t *testing.T) {
	g := fig9Graph(t)
	if g.Source() != 0 {
		t.Errorf("source = %d", g.Source())
	}
	sink := g.Sink()
	if g.Node(sink).Layer.Name() != "v7" {
		t.Errorf("sink = %q", g.Node(sink).Layer.Name())
	}
	// Topo order respects edges.
	pos := make(map[int]int)
	for i, id := range g.Topo() {
		pos[id] = i
	}
	for id := 0; id < g.Len(); id++ {
		for _, s := range g.Succs(id) {
			if pos[id] >= pos[s] {
				t.Errorf("topo violates edge %d->%d", id, s)
			}
		}
	}
}

func TestFinalizeErrors(t *testing.T) {
	// Two sinks.
	g := New("twosinks")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 4, 4)})
	g.Add(nn.NewActivation("a", nn.ReLU), in)
	g.Add(nn.NewActivation("b", nn.ReLU), in)
	if err := g.Finalize(); err == nil || !strings.Contains(err.Error(), "sink") {
		t.Errorf("want sink error, got %v", err)
	}

	// Two sources.
	g2 := New("twosources")
	g2.Add(&nn.Input{LayerName: "in1", Shape: tensor.NewCHW(1, 4, 4)})
	g2.Add(&nn.Input{LayerName: "in2", Shape: tensor.NewCHW(1, 4, 4)})
	if err := g2.Finalize(); err == nil || !strings.Contains(err.Error(), "source") {
		t.Errorf("want source error, got %v", err)
	}

	// Source is not an input layer.
	g3 := New("badsource")
	a := g3.Add(nn.NewActivation("a", nn.ReLU))
	g3.Add(nn.NewActivation("b", nn.ReLU), a)
	if err := g3.Finalize(); err == nil || !strings.Contains(err.Error(), "input layer") {
		t.Errorf("want input-layer error, got %v", err)
	}

	// Shape error propagates.
	g4 := New("badshape")
	in4 := g4.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(3, 4, 4)})
	g4.Add(&nn.Conv2D{LayerName: "huge", OutC: 8, KH: 9, KW: 9, Stride: 1}, in4)
	if err := g4.Finalize(); err == nil {
		t.Error("want shape inference error")
	}

	// Empty graph.
	if err := New("empty").Finalize(); err == nil {
		t.Error("want empty-graph error")
	}
}

func TestAddPanics(t *testing.T) {
	g := New("p")
	g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 2, 2)})
	mustPanic(t, "duplicate name", func() {
		g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 2, 2)})
	})
	mustPanic(t, "unknown pred", func() {
		g.Add(nn.NewActivation("a", nn.ReLU), 42)
	})
}

func TestUseBeforeFinalizePanics(t *testing.T) {
	g := New("raw")
	g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 2, 2)})
	mustPanic(t, "Topo before Finalize", func() { g.Topo() })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic: %s", what)
		}
	}()
	f()
}

func TestNodeCostQueries(t *testing.T) {
	g := lineGraph(t)
	conv, _ := g.NodeByName("conv")
	wantFLOPs := 2.0 * 3 * 3 * 3 * 8 * 32 * 32
	if got := conv.FLOPs; got != wantFLOPs {
		t.Errorf("conv FLOPs = %g, want %g", got, wantFLOPs)
	}
	if got := conv.Params; got != 8*3*3*3 {
		t.Errorf("conv params = %d", got)
	}
	if got := g.OutBytes(conv.ID, tensor.Float32); got != 8*32*32*4 {
		t.Errorf("conv out bytes = %d", got)
	}
	if g.TotalFLOPs() <= wantFLOPs {
		t.Error("total FLOPs should exceed conv FLOPs alone")
	}
	if g.TotalParams() <= conv.Params {
		t.Error("total params should exceed conv params alone")
	}
}

func TestAncestors(t *testing.T) {
	g := fig9Graph(t)
	v4, _ := g.NodeByName("v4")
	anc := g.Ancestors(v4.ID)
	wantIn := []string{"v0", "v1", "v2", "v3", "v4"}
	wantOut := []string{"v5", "v6", "v7"}
	for _, n := range wantIn {
		nd, _ := g.NodeByName(n)
		if !anc[nd.ID] {
			t.Errorf("%s missing from ancestors of v4", n)
		}
	}
	for _, n := range wantOut {
		nd, _ := g.NodeByName(n)
		if anc[nd.ID] {
			t.Errorf("%s wrongly in ancestors of v4", n)
		}
	}
}

func TestCutBytesCountsTensorOnce(t *testing.T) {
	g := fig9Graph(t)
	// Mobile = {v0, v1}: v1 feeds v2 and v3 (both cloud) but its tensor
	// is uploaded once; v0 feeds v5 (cloud), so its tensor also ships.
	v0, _ := g.NodeByName("v0")
	v1, _ := g.NodeByName("v1")
	mobile := map[int]bool{v0.ID: true, v1.ID: true}
	per := tensor.NewCHW(4, 8, 8).Bytes(tensor.Float32)
	if got := g.CutBytes(mobile, tensor.Float32); got != 2*per {
		t.Errorf("CutBytes = %d, want %d (two tensors, each once)", got, 2*per)
	}
}

func TestValidCut(t *testing.T) {
	g := fig9Graph(t)
	v0, _ := g.NodeByName("v0")
	v1, _ := g.NodeByName("v1")
	v2, _ := g.NodeByName("v2")
	if !g.ValidCut(map[int]bool{v0.ID: true, v1.ID: true, v2.ID: true}) {
		t.Error("downward-closed set must be a valid cut")
	}
	if g.ValidCut(map[int]bool{v2.ID: true}) {
		t.Error("set missing predecessors must be invalid")
	}
	if !g.ValidCut(map[int]bool{}) {
		t.Error("empty set (cloud-only) must be a valid cut")
	}
}

func TestMobileFLOPs(t *testing.T) {
	g := lineGraph(t)
	conv, _ := g.NodeByName("conv")
	mobile := g.Ancestors(conv.ID)
	if got := g.MobileFLOPs(mobile); got != conv.FLOPs {
		t.Errorf("MobileFLOPs = %g, want conv-only %g", got, conv.FLOPs)
	}
}

func TestNodeByNameMissing(t *testing.T) {
	g := lineGraph(t)
	if _, ok := g.NodeByName("nope"); ok {
		t.Error("lookup of missing name must fail")
	}
}
