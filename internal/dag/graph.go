// Package dag models a DNN as the directed acyclic graph of Section 3
// of the paper: one node per layer, edges carrying the activation
// tensors whose byte volume is the offloading cost. It provides the
// graph algebra the planner needs — topological order, line-structure
// detection, ancestor closures, cut volumes, all-paths conversion
// (Fig. 9) and series-parallel decomposition for general DNNs.
package dag

import (
	"fmt"

	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// Node is one layer instance inside a graph. Finalize sizes it once,
// through its layer's Infer: the output shape, the FLOPs and the
// parameter count never change after that.
type Node struct {
	ID       int
	Layer    nn.Layer
	OutShape tensor.Shape
	FLOPs    float64
	Params   int64
}

// Graph is a DNN computation graph under construction or finalized.
// Build with New/Add, then call Finalize before using any query
// method.
type Graph struct {
	name      string
	nodes     []*Node
	preds     [][]int
	succs     [][]int
	byName    map[string]int // layer name → ID, only until Finalize
	topo      []int
	arts      []int
	finalized bool
}

// New creates an empty graph with a model name.
func New(name string) *Graph {
	return &Graph{name: name, byName: make(map[string]int)}
}

// Name returns the model name.
func (g *Graph) Name() string { return g.name }

// Add appends a layer whose inputs are the outputs of preds (in the
// given order) and returns its node ID. The first layer added must be
// an nn.Input with no predecessors. Add panics on structural misuse —
// duplicate names, unknown predecessors — because model construction
// is programmer-controlled, not data-driven.
func (g *Graph) Add(layer nn.Layer, preds ...int) int {
	if g.finalized {
		panic("dag: Add after Finalize")
	}
	if _, dup := g.byName[layer.Name()]; dup {
		panic(fmt.Sprintf("dag: duplicate layer name %q", layer.Name()))
	}
	id := len(g.nodes)
	for _, p := range preds {
		if p < 0 || p >= id {
			panic(fmt.Sprintf("dag: layer %q references unknown predecessor %d", layer.Name(), p))
		}
	}
	g.nodes = append(g.nodes, &Node{ID: id, Layer: layer})
	g.preds = append(g.preds, append([]int(nil), preds...))
	g.succs = append(g.succs, nil)
	for _, p := range preds {
		g.succs[p] = append(g.succs[p], id)
	}
	g.byName[layer.Name()] = id
	return id
}

// Finalize validates the structure and sizes every node (output
// shape, FLOPs, parameters). It requires exactly one source (an
// nn.Input) and exactly one sink. Every node is then reachable from the
// source: each other node has a predecessor, and Add gives that one a
// smaller ID.
func (g *Graph) Finalize() error {
	if g.finalized {
		return nil
	}
	if len(g.nodes) == 0 {
		return fmt.Errorf("dag %s: empty graph", g.name)
	}
	var sources, sinks []int
	for id := range g.nodes {
		if len(g.preds[id]) == 0 {
			sources = append(sources, id)
		}
		if len(g.succs[id]) == 0 {
			sinks = append(sinks, id)
		}
	}
	if len(sources) != 1 {
		return fmt.Errorf("dag %s: want exactly 1 source, have %d", g.name, len(sources))
	}
	if len(sinks) != 1 {
		return fmt.Errorf("dag %s: want exactly 1 sink, have %d", g.name, len(sinks))
	}
	if _, ok := g.nodes[sources[0]].Layer.(*nn.Input); !ok {
		return fmt.Errorf("dag %s: source %q is not an input layer", g.name, g.nodes[sources[0]].Layer.Name())
	}
	// Since Add only allows predecessors with smaller IDs, insertion
	// order is already topological.
	g.topo = make([]int, len(g.nodes))
	for i := range g.topo {
		g.topo[i] = i
	}
	// Sizing in topological order.
	for _, id := range g.topo {
		s, err := g.nodes[id].Layer.Infer(g.inputShapes(id))
		if err != nil {
			return fmt.Errorf("dag %s: %w", g.name, err)
		}
		n := g.nodes[id]
		n.OutShape, n.FLOPs, n.Params = s.Out, s.FLOPs, s.Params
	}
	g.arts = g.articulations()
	g.byName = nil // Add refuses a finalized graph, so nothing reads it again
	g.finalized = true
	return nil
}

// MustFinalize is Finalize for model constructors where a failure is a
// programming error.
func (g *Graph) MustFinalize() *Graph {
	if err := g.Finalize(); err != nil {
		panic(err)
	}
	return g
}

func (g *Graph) mustFinalized() {
	if !g.finalized {
		panic("dag: graph used before Finalize")
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id int) *Node { return g.nodes[id] }

// NodeByName returns the node with the given layer name. It scans the
// nodes: the name index lives only while the graph is built, to refuse
// duplicates, and no planner or runtime path looks a node up by name.
func (g *Graph) NodeByName(name string) (*Node, bool) {
	for _, n := range g.nodes {
		if n.Layer.Name() == name {
			return n, true
		}
	}
	return nil, false
}

// Preds returns the predecessor IDs of a node (do not mutate).
func (g *Graph) Preds(id int) []int { return g.preds[id] }

// Succs returns the successor IDs of a node (do not mutate).
func (g *Graph) Succs(id int) []int { return g.succs[id] }

// Topo returns the node IDs in topological order (do not mutate).
func (g *Graph) Topo() []int { g.mustFinalized(); return g.topo }

// Source returns the single source node ID.
func (g *Graph) Source() int {
	g.mustFinalized()
	return g.topo[0]
}

// Sink returns the single sink node ID: the last node, since every
// successor has a larger ID and Finalize admits one node without
// successors.
func (g *Graph) Sink() int {
	g.mustFinalized()
	return len(g.nodes) - 1
}

// InputShapes returns the output shapes of a node's predecessors, i.e.
// the shapes the node consumes.
func (g *Graph) InputShapes(id int) []tensor.Shape {
	g.mustFinalized()
	return g.inputShapes(id)
}

func (g *Graph) inputShapes(id int) []tensor.Shape {
	ins := make([]tensor.Shape, len(g.preds[id]))
	for i, p := range g.preds[id] {
		ins[i] = g.nodes[p].OutShape
	}
	return ins
}

// OutBytes returns the serialized size of a node's output tensor.
func (g *Graph) OutBytes(id int, dt tensor.DType) int {
	g.mustFinalized()
	return g.nodes[id].OutShape.Bytes(dt)
}

// TotalFLOPs sums the FLOPs of every node.
func (g *Graph) TotalFLOPs() float64 {
	g.mustFinalized()
	var sum float64
	for _, id := range g.topo {
		sum += g.nodes[id].FLOPs
	}
	return sum
}

// TotalParams sums the parameter counts of every node.
func (g *Graph) TotalParams() int64 {
	g.mustFinalized()
	var sum int64
	for _, id := range g.topo {
		sum += g.nodes[id].Params
	}
	return sum
}

// IsLine reports whether the graph is a simple chain (every node has
// at most one predecessor and one successor).
func (g *Graph) IsLine() bool {
	g.mustFinalized()
	for id := range g.nodes {
		if len(g.preds[id]) > 1 || len(g.succs[id]) > 1 {
			return false
		}
	}
	return true
}

// Ancestors returns the set of the given nodes and all their
// transitive predecessors — the mobile-side node set induced by a
// partition P (the paper's "cut-points and their predecessors").
func (g *Graph) Ancestors(ids ...int) map[int]bool {
	g.mustFinalized()
	set := make(map[int]bool)
	var stack []int
	for _, id := range ids {
		if id < 0 || id >= len(g.nodes) {
			panic(fmt.Sprintf("dag: Ancestors of unknown node %d", id))
		}
		if !set[id] {
			set[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.preds[v] {
			if !set[p] {
				set[p] = true
				stack = append(stack, p)
			}
		}
	}
	return set
}

// CutBytes returns the bytes that must be uploaded for the given
// mobile-side node set: each mobile node whose output feeds at least
// one cloud-side node ships its tensor exactly once (the same tensor
// serves all cloud consumers).
func (g *Graph) CutBytes(mobile map[int]bool, dt tensor.DType) int {
	g.mustFinalized()
	total := 0
	for id := range mobile {
		for _, s := range g.succs[id] {
			if !mobile[s] {
				total += g.OutBytes(id, dt)
				break
			}
		}
	}
	return total
}

// MobileFLOPs sums FLOPs over a mobile-side node set.
func (g *Graph) MobileFLOPs(mobile map[int]bool) float64 {
	g.mustFinalized()
	var sum float64
	for id := range mobile {
		sum += g.nodes[id].FLOPs
	}
	return sum
}

// ValidCut reports whether a mobile-side node set is downward closed
// (contains all predecessors of its members) — the feasibility
// condition for a partition.
func (g *Graph) ValidCut(mobile map[int]bool) bool {
	g.mustFinalized()
	for id := range mobile {
		for _, p := range g.preds[id] {
			if !mobile[p] {
				return false
			}
		}
	}
	return true
}
