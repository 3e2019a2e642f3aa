package runtime

import (
	"slices"
	"testing"
	"time"

	"dnnjps/internal/engine"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/tensor"
)

// A terminal span stops at the logits and every class is read off them
// (engine.SoftmaxArgmaxBatch): no path that ends a job may give another
// class than the model's softmax sink, a local Forward's argmax.

// zooInput is a deterministic whole-model input for a zoo model.
func zooInput(m *engine.Model, i int) *tensor.Tensor {
	g := m.Graph()
	in := tensor.New(g.Node(g.Source()).OutShape)
	for j := range in.Data {
		in.Data[j] = float32((j*(i+3)+i*11)%37)/37 - 0.5
	}
	return in
}

// checkTerminalProgram asserts the line program's terminal rule on m:
// the logits are the softmax sink's one predecessor, the terminal node
// list stops short of the sink, and where the sink is a unit of its own
// the span into it runs nothing and hands back its seed.
func checkTerminalProgram(t *testing.T, name string, lp lineProgram) {
	t.Helper()
	g := lp.model.Graph()
	sink, last := g.Sink(), len(lp.units)-1
	if want := g.Preds(sink)[0]; lp.logits != want || lp.exit(last) != want {
		t.Fatalf("%s: logits %d, terminal exit %d, want the sink's predecessor %d", name, lp.logits, lp.exit(last), want)
	}
	for from := -1; from < last; from++ {
		if span := lp.nodes[lp.off[from+1]:lp.end(last)]; slices.Contains(span, sink) {
			t.Fatalf("%s: the terminal span from unit %d runs the sink", name, from)
		}
	}
	if lp.end(last-1) != lp.off[last] || lp.exit(last-1) != lp.units[last-1].Exit {
		t.Fatalf("%s: a span ending before the last unit is not the plain unit range", name)
	}
	if len(lp.units[last].Nodes) == 1 {
		seed := tensor.New(g.Node(lp.logits).OutShape)
		out, err := lp.runSpan(last-1, last, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		if out != seed {
			t.Fatalf("%s: the span into a sink unit of its own did not return its seed", name)
		}
	}
}

func TestTerminalProgramStopsAtLogits(t *testing.T) {
	checkTerminalProgram(t, "test model", newLineProgram(testModel(t)))
	lp := newLineProgram(testModel(t))
	// A model whose sink is no softmax keeps the sink as its last exit.
	lp.logits = -1
	if last := len(lp.units) - 1; lp.end(last) != len(lp.nodes) || lp.exit(last) != lp.units[last].Exit {
		t.Fatal("without a softmax sink the terminal span must run to the sink")
	}
}

// TestTerminalClassesMatchForward runs every path that ends a job —
// a 32-job tail group, solo passes (at the last cut, where AlexNet's
// and MobileNet-v2's span is empty), a set cut at the logits node, and
// the all-local prefix Runner.finishLocal takes, line and set — on
// AlexNet, MobileNet-v2, SqueezeNet (whose logits are its global
// average pool) and an int8 MobileNet-v2, and a true boundary set on
// ResNet-18; every class must be a local Forward's.
func TestTerminalClassesMatchForward(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("loads and runs zoo models")
	}
	const distinct, group = 4, 32
	for _, c := range []struct {
		name  string
		model string
		int8  bool
	}{
		{"alexnet", "alexnet", false},
		{"mobilenetv2", "mobilenetv2", false},
		{"squeezenet", "squeezenet", false},
		{"mobilenetv2-int8", "mobilenetv2", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := engine.Load(models.MustBuild(c.model), 42)
			if c.int8 {
				m = quantized(t, m)
			}
			lp := newLineProgram(m)
			checkTerminalProgram(t, c.name, lp)
			last := len(lp.units) - 1
			inputs := make([]*tensor.Tensor, distinct)
			for i := range inputs {
				inputs[i] = zooInput(m, i)
			}
			want := wantClasses(t, m, inputs)

			if lp.tail >= 0 {
				boundaries := make([]*tensor.Tensor, group)
				for i := range boundaries {
					if i < distinct {
						boundaries[i], _ = boundaryFor(t, m, lp.tail, inputs[i])
					} else {
						boundaries[i] = boundaries[i%distinct]
					}
				}
				cl, o := batchPair(t, m, time.Second, group)
				rep, err := cl.RunBoundaryJobs(lp.tail, boundaries)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range rep.Results {
					if r.Class != want[i%distinct] {
						t.Errorf("tail group job %d: class %d, want %d", i, r.Class, want[i%distinct])
					}
				}
				if o.BatchedJobs.Value() == 0 {
					t.Errorf("no tail group formed (%d solo)", o.SoloJobs.Value())
				}
			}

			cl := startPair(t, m, netsim.WiFi)
			for i, in := range inputs {
				for _, cut := range []int{0, last - 1} {
					res, err := cl.RunJob(i, cut, in.Clone())
					if err != nil {
						t.Fatal(err)
					}
					if res.Class != want[i] {
						t.Errorf("input %d solo at cut %d: class %d, want %d", i, cut, res.Class, want[i])
					}
				}
				res, err := cl.RunCutSet(i, []int{lp.logits}, in.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if res.Class != want[i] {
					t.Errorf("input %d cut at the logits: class %d, want %d", i, res.Class, want[i])
				}
				for _, cut := range []jobCut{{unit: last}, {nodes: []int{m.Graph().Sink()}}} {
					req, res, err := lp.runPrefix(i, cut, in.Clone())
					if err != nil {
						t.Fatal(err)
					}
					if req != nil || res.Cut != last || res.Class != want[i] {
						t.Errorf("input %d all local (%+v): frame %v, cut %d, class %d, want no frame, %d, %d",
							i, cut, req != nil, res.Cut, res.Class, last, want[i])
					}
				}
			}
		})
	}

	t.Run("resnet18-set", func(t *testing.T) {
		m := engine.Load(models.MustBuild("resnet18"), 42)
		lp := newLineProgram(m)
		checkTerminalProgram(t, "resnet18", lp)
		exit := map[int]bool{}
		for _, u := range lp.units {
			exit[u.Exit] = true
		}
		var inner []int // no unit's exit: a cut there is a true set
		for _, id := range lp.nodes {
			if !exit[id] {
				inner = append(inner, id)
			}
		}
		cl := startPair(t, m, netsim.WiFi)
		for i := 0; i < distinct; i++ {
			in := zooInput(m, i)
			want := wantClasses(t, m, []*tensor.Tensor{in})[0]
			node := inner[(i+1)*len(inner)/(distinct+1)]
			res, err := cl.RunCutSet(i, []int{node}, in)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cut != -1 || res.Class != want {
				t.Errorf("input %d cut at %s: cut %d class %d, want -1/%d", i, m.Graph().Node(node).Layer.Name(), res.Cut, res.Class, want)
			}
		}
	})
}
