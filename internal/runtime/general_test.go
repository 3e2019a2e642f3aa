package runtime

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/netsim"
	"dnnjps/internal/nn"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// branchedModel has two parallel branches, so cut sets can require
// shipping two boundary tensors at once.
func branchedModel(t *testing.T) *engine.Model {
	t.Helper()
	g := dag.New("branched")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(3, 16, 16)})
	stem := g.Add(&nn.Conv2D{LayerName: "stem", OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, in)
	a1 := g.Add(&nn.Conv2D{LayerName: "a1", OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, stem)
	a2 := g.Add(nn.NewActivation("a2", nn.ReLU), a1)
	b1 := g.Add(&nn.Conv2D{LayerName: "b1", OutC: 8, KH: 1, KW: 1, Stride: 1, Bias: true}, stem)
	j := g.Add(&nn.Add{LayerName: "join"}, a2, b1)
	gp := g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, j)
	fc := g.Add(&nn.Dense{LayerName: "fc", Out: 6, Bias: true}, gp)
	g.Add(nn.NewSoftmax("softmax"), fc)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return engine.Load(g, 77)
}

// twoTensorCut is the cut set on branchedModel whose boundary is one
// tensor per branch — a true set, not a line cut.
func twoTensorCut(t *testing.T, m *engine.Model) []int {
	t.Helper()
	a2, _ := m.Graph().NodeByName("a2")
	b1, _ := m.Graph().NodeByName("b1")
	return []int{a2.ID, b1.ID}
}

// twoTensorSetBytes is the wire size of the job frame that cut ships:
// two 8x16x16 tensors, float32 (16 KB) or, on a quantized model, int8.
func twoTensorSetBytes(m *engine.Model) int {
	a2, _ := m.Graph().NodeByName("a2")
	p := boundary{T: tensor.New(a2.OutShape)}
	if m.IsQuantized() {
		p = boundary{Q: tensor.NewQ(a2.OutShape, tensor.QParams{Scale: 1})}
	}
	return jobWireBytes([]boundary{p, p})
}

// uniformGeneralPlan cuts every job at the same node set, in job-ID
// order: the general-plan counterpart of uniformPlan.
func uniformGeneralPlan(n int, nodes []int) *core.GeneralPlan {
	gp := &core.GeneralPlan{CutNodes: make([][]int, n), Sequence: make([]core.PathJob, n)}
	for j := range gp.CutNodes {
		gp.CutNodes[j] = nodes
		gp.Sequence[j] = core.PathJob{Job: j}
	}
	return gp
}

func TestRunCutSetMultiBoundaryCut(t *testing.T) {
	m := branchedModel(t)
	cl := startPair(t, m, netsim.WiFi)
	g := m.Graph()
	in := input(5)
	want, err := m.Forward(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	wantClass := engine.Argmax(want)

	a2, _ := g.NodeByName("a2")
	stem, _ := g.NodeByName("stem")
	inN, _ := g.NodeByName("input")
	last := cl.Units() - 1

	// wantCut is JobResult.Cut: the unit index when the boundary is a
	// line cut (whatever method submitted it), -1 for a true set.
	cases := []struct {
		name    string
		cuts    []int
		wantCut int
	}{
		{"two-branch boundary", twoTensorCut(t, m), -1},
		{"one branch deep, one shallow", []int{a2.ID, stem.ID}, -1},
		{"cloud-only", []int{inN.ID}, 0},
		{"stem only", []int{stem.ID}, 1},
		{"fully local", []int{g.Sink()}, last},
	}
	for _, c := range cases {
		res, err := cl.RunCutSet(3, c.cuts, in.Clone())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Class != wantClass {
			t.Errorf("%s: class %d, want %d", c.name, res.Class, wantClass)
		}
		if res.Cut != c.wantCut {
			t.Errorf("%s: JobResult.Cut = %d, want %d", c.name, res.Cut, c.wantCut)
		}
	}
}

func TestRunCutSetRejectsBadCutSet(t *testing.T) {
	m := branchedModel(t)
	cl := startPair(t, m, netsim.WiFi)
	if _, err := cl.RunCutSet(0, nil, input(0)); err == nil {
		t.Error("empty cut set must error")
	}
	if _, err := cl.RunCutSet(0, []int{m.Graph().Len()}, input(0)); err == nil {
		t.Error("out-of-range cut node must error")
	}
}

func TestRunGeneralPlanRunsPlanGeneralCuts(t *testing.T) {
	// The cut sets an Algorithm 3 plan emits execute end to end, as one
	// pipelined run in the order of the plan's job-level view.
	m := branchedModel(t)
	g := m.Graph()
	cl := startPair(t, m, netsim.WiFi)
	pi, gpu := profile.RaspberryPi4(), profile.CloudGPU()
	const n = 3
	gp, err := core.PlanGeneral(g, pi, gpu, netsim.WiFi, tensor.Float32, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = input(9 + i)
	}
	rep, err := cl.RunGeneralPlan(gp, inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkClasses(t, rep, wantClasses(t, m, inputs))
	if _, err := cl.RunGeneralPlan(gp, inputs[:1]); err == nil {
		t.Error("input count mismatch must error")
	}
}

// TestInferSetRejectsGarbage: a set frame whose count is zero, or whose
// second pair does not fit the model behind a first that does, fails
// its connection with the error that names the fault — the check walks
// every pair, not just the first.
func TestInferSetRejectsGarbage(t *testing.T) {
	m := branchedModel(t)
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	g := m.Graph()
	a2, _ := g.NodeByName("a2")
	b1, _ := g.NodeByName("b1")
	good := boundary{Node: a2.ID, T: tensor.New(a2.OutShape)}
	for _, c := range []struct {
		name  string
		pairs []boundary
		want  string
	}{
		{"zero boundary count", nil, "bad boundary count 0"},
		{"out-of-range node", []boundary{good, {Node: 999, T: tensor.New(tensor.NewVec(1))}}, "boundary node 999 out of range"},
		{"wrong boundary shape", []boundary{good, {Node: b1.ID, T: tensor.New(tensor.NewVec(1))}},
			fmt.Sprintf("boundary %d tensor [1], want %v", b1.ID, b1.OutShape)},
	} {
		var frame bytes.Buffer
		if err := writeJob(&frame, 1, c.pairs); err != nil {
			t.Fatal(err)
		}
		if err := srv.HandleConn(&rwBuffer{in: &frame}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s must error with %q, got %v", c.name, c.want, err)
		}
	}
}
