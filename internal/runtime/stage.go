package runtime

import (
	"sync"

	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/nn"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// A job is three contiguous pieces of one layer sequence — the prefix
// on the device, the cut tensor on the link, the suffix on the cloud
// (§3.1) — and on a chain every device gets a contiguous span of it.
// lineProgram is that sequence as every stage holds it, and runSpan the
// one way any of them runs its piece.

// lineProgram is the model with its line view held once. LineView
// chunks the graph's topological order at the articulation nodes, so
// the units' node lists laid end to end are that order: nodes is it,
// and off[k] counts the nodes before unit k (off[len(units)] is all of
// them). Units (a, b] are nodes[off[a+1]:off[b+1]] — a slice of the one
// list, not a copy per cut. tail is the unit whose exit feeds the
// model's fully connected tail (tailUnit), -1 where there is none.
// logits is the node a softmax sink normalizes — the sink's one
// predecessor, and what a span ending at the last unit stops at (see
// runSpan) — or -1 where the sink is something else.
type lineProgram struct {
	model  *engine.Model
	units  []profile.Unit
	nodes  []int
	off    []int
	tail   int
	logits int
	// acts recycles the activation maps runSpan hands the engine: a job
	// on a stage that parks is two spans, and a map each would be a
	// third of what the second one allocates.
	acts *sync.Pool
}

func newLineProgram(m *engine.Model) lineProgram {
	g := m.Graph()
	lp := lineProgram{model: m, units: profile.LineView(g), nodes: g.Topo(), acts: new(sync.Pool)}
	lp.off = make([]int, len(lp.units)+1)
	for k, u := range lp.units {
		lp.off[k+1] = lp.off[k] + len(u.Nodes)
	}
	lp.tail = tailUnit(g, lp.units, m.IsQuantized())
	lp.logits = -1
	if sink := g.Sink(); len(g.Preds(sink)) == 1 && lp.nodes[len(lp.nodes)-1] == sink {
		if _, ok := g.Node(sink).Layer.(*nn.Softmax); ok {
			lp.logits = g.Preds(sink)[0]
		}
	}
	return lp
}

// tailUnit finds where a model's fully connected tail begins: the unit
// whose exit feeds the first Dense layer after which no convolution,
// depthwise convolution or BatchNorm follows — reached back through
// Flatten and Dropout, which move nothing at inference, so the exit is
// the last tensor something computed (AlexNet conv5/pool, MobileNet-v2
// head/gap). The split matters because the two sides of it batch
// differently: a dense layer reads each weight once per pass whatever
// the batch size, so n jobs through the tail together stream the
// weights once instead of n times (AlexNet fc6 alone is 151 MB),
// while a convolution reuses its weights across the positions of one
// image already and gains almost nothing from companions.
//
// It is -1 on a model with no dense head (a terminal server then runs
// every job in one pass) and on a quantized model: the int8 kernels are
// single-image, so no job of it may park for a group.
func tailUnit(g *dag.Graph, units []profile.Unit, quantized bool) int {
	if quantized {
		return -1
	}
	first := 0 // the tail's first unit so far, scanning back from the sink
	for k := len(units) - 1; k > 0; k-- {
		dense, moves := false, false
		for _, id := range units[k].Nodes {
			switch g.Node(id).Layer.(type) {
			case *nn.Conv2D, *nn.DepthwiseConv2D, *nn.BatchNorm:
				return first - 1
			case *nn.Dense:
				dense = true
			case *nn.Flatten, *nn.Dropout:
			default:
				moves = true
			}
		}
		if dense || (first == k+1 && !moves) {
			first = k
		}
	}
	return first - 1
}

// runSpan is the one stage executor: the device's prefix, a middle
// stage's segment, the cloud's suffix and a local fallback are all this
// call. It seeds seed — a packed batch of n, which at n = 1 is the plain
// tensor (engine.PackBatch) — as the activation at unit from's exit,
// runs units (from, to] and returns the activation at exit(to): unit
// to's exit, except on a span that ends at the last unit of a model
// with a softmax sink, which stops short of the sink and returns the
// logits. Nobody reads the probabilities — a job's class is
// engine.SoftmaxArgmaxBatch of the logits, the same class exactly — so
// no stage computes them. When the sink is a unit of its own (AlexNet,
// MobileNet-v2) a span from the unit before it runs no node and returns
// seed itself. from = -1 enters at the source, with seed as the model
// input.
//
// Concurrent callers share the model: its arena is thread-safe and the
// engine tracks liveness per call. seed stays the caller's, the arena
// never recycles it; the exit activation survives the call because its
// consumers, if it has any, are outside the span.
func (lp *lineProgram) runSpan(from, to, n int, seed *tensor.Tensor) (*tensor.Tensor, error) {
	acts, _ := lp.acts.Get().(map[int]*tensor.Tensor)
	if acts == nil {
		acts = map[int]*tensor.Tensor{}
	}
	defer func() {
		clear(acts)
		lp.acts.Put(acts)
	}()
	input := seed
	if from >= 0 {
		acts[lp.units[from].Exit], input = seed, nil
	}
	if err := lp.model.ExecuteBatch(acts, n, input, lp.nodes[lp.off[from+1]:lp.end(to)]); err != nil {
		return nil, err
	}
	return acts[lp.exit(to)], nil
}

// terminal reports whether a span ending at unit to stops at the
// logits instead of the sink.
func (lp *lineProgram) terminal(to int) bool {
	return to == len(lp.units)-1 && lp.logits >= 0
}

// end is where in nodes a span ending at unit to stops: off[to+1], one
// short of it — the sink — on a terminal span.
func (lp *lineProgram) end(to int) int {
	if lp.terminal(to) {
		return lp.off[to+1] - 1
	}
	return lp.off[to+1]
}

// exit is the node whose activation a span ending at unit to returns:
// the unit's exit, the logits on a terminal span.
func (lp *lineProgram) exit(to int) int {
	if lp.terminal(to) {
		return lp.logits
	}
	return lp.units[to].Exit
}

// cutOf names the line cut a job's boundary is, or -1 for a true set.
// No pair is the last unit: the sink is on the mobile side. One pair at
// a unit's exit is that unit: a one-boundary mobile side is the
// boundary's ancestor closure — every other mobile node reaches the
// sink through a boundary node — and a unit exit's ancestor closure is
// its unit prefix (TestUnitExitClosureIsUnitPrefix). The server derives
// a decoded job's Cut so, and everything downstream keys on it: only a
// line job groups, parks or is handed off, since a set's -1 matches no
// unit.
func (lp *lineProgram) cutOf(pairs []boundary) int {
	switch len(pairs) {
	case 0:
		return len(lp.units) - 1
	case 1:
		for k, u := range lp.units {
			if u.Exit == pairs[0].Node {
				return k
			}
		}
	}
	return -1
}

// runSide is runSpan for a cut-node set, and this package's only other
// call into the engine. It runs one side of the cut in topological
// order: with an input the mobile side — the set's ancestor closure,
// entered at the source — and without one everything else, entered at
// the boundary tensors the caller seeded in acts. Like a terminal span
// it never runs a softmax sink: the side that holds the sink stops at
// the logits. It returns the mobile side and the list it ran; what the
// side leaves for whoever comes next (its boundary activations, or the
// activation at exit(len(units)-1)) stays in acts.
//
// It cannot share runSpan: a side is not a run of consecutive units, so
// the line program has no slice for it, and it is entered or left
// through several tensors at once, never batched.
func (lp *lineProgram) runSide(acts map[int]*tensor.Tensor, input *tensor.Tensor, cutNodes []int) (mobile map[int]bool, side []int, err error) {
	mobile = lp.model.Graph().Ancestors(cutNodes...)
	for _, id := range lp.nodes[:lp.end(len(lp.units)-1)] {
		if mobile[id] == (input != nil) {
			side = append(side, id)
		}
	}
	return mobile, side, lp.model.Execute(acts, input, side)
}
