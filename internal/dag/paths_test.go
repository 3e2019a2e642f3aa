package dag

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

func names(g *Graph, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Node(id).Layer.Name()
	}
	return out
}

func TestAllPathsFig9(t *testing.T) {
	g := fig9Graph(t)
	paths, err := g.AllPaths(0)
	if err != nil {
		t.Fatalf("AllPaths: %v", err)
	}
	// The paper's conversion of Fig. 9(a) yields exactly 3 independent
	// paths (Fig. 9(b)).
	want := map[string]bool{
		"v0 v1 v2 v4 v7": true,
		"v0 v1 v3 v4 v7": true,
		"v0 v5 v6 v7":    true,
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	for _, p := range paths {
		key := fmt.Sprintf("%s", joinNames(names(g, p)))
		if !want[key] {
			t.Errorf("unexpected path %q", key)
		}
		delete(want, key)
	}
	if len(want) != 0 {
		t.Errorf("missing paths: %v", want)
	}
}

func joinNames(ns []string) string {
	s := ""
	for i, n := range ns {
		if i > 0 {
			s += " "
		}
		s += n
	}
	return s
}

func TestAllPathsLine(t *testing.T) {
	g := lineGraph(t)
	paths, err := g.AllPaths(0)
	if err != nil {
		t.Fatalf("AllPaths: %v", err)
	}
	if len(paths) != 1 || len(paths[0]) != g.Len() {
		t.Errorf("line graph must have exactly one full path, got %v", paths)
	}
}

func TestAllPathsLimit(t *testing.T) {
	g := fig9Graph(t)
	if _, err := g.AllPaths(2); !errors.Is(err, ErrTooManyPaths) {
		t.Errorf("want ErrTooManyPaths, got %v", err)
	}
}

func TestCountPaths(t *testing.T) {
	if got := fig9Graph(t).CountPaths(); got != 3 {
		t.Errorf("fig9 CountPaths = %d, want 3", got)
	}
	if got := lineGraph(t).CountPaths(); got != 1 {
		t.Errorf("line CountPaths = %d, want 1", got)
	}
}

// deepParallel builds a chain of m diamond modules, each with b
// branches: path count is b^m.
func deepParallel(t *testing.T, m, b int) *Graph {
	t.Helper()
	s := tensor.NewCHW(2, 4, 4)
	g := New("deep")
	prev := g.Add(&nn.Input{LayerName: "in", Shape: s})
	for i := 0; i < m; i++ {
		var branches []int
		for j := 0; j < b; j++ {
			branches = append(branches,
				g.Add(nn.NewActivation(fmt.Sprintf("m%d_b%d", i, j), nn.ReLU), prev))
		}
		prev = g.Add(&nn.Add{LayerName: fmt.Sprintf("m%d_join", i)}, branches...)
	}
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

func TestCountPathsExponential(t *testing.T) {
	g := deepParallel(t, 9, 4) // GoogLeNet-like: 4^9 paths
	want := 1
	for i := 0; i < 9; i++ {
		want *= 4
	}
	if got := g.CountPaths(); got != want {
		t.Errorf("CountPaths = %d, want %d", got, want)
	}
	if _, err := g.AllPaths(1000); !errors.Is(err, ErrTooManyPaths) {
		t.Error("AllPaths must refuse exponential graphs")
	}
}

func TestArticulationsFig9(t *testing.T) {
	g := fig9Graph(t)
	arts := names(g, g.Articulations())
	if len(arts) != 2 || arts[0] != "v0" || arts[1] != "v7" {
		t.Errorf("articulations = %v, want [v0 v7]", arts)
	}
}

func TestArticulationsLine(t *testing.T) {
	g := lineGraph(t)
	arts := g.Articulations()
	if len(arts) != g.Len() {
		t.Errorf("every node of a line is an articulation; got %d of %d", len(arts), g.Len())
	}
}

// articulationsByRemoval is Articulations by its definition, in
// O(V·(V+E)): v lies on every source→sink path iff removing v
// disconnects source from sink.
func (g *Graph) articulationsByRemoval() []int {
	src, sink := g.Source(), g.Sink()
	var arts []int
	for _, v := range g.topo {
		if v == src || v == sink || !g.reachableAvoiding(src, sink, v) {
			arts = append(arts, v)
		}
	}
	return arts
}

// ArticulationsByRemoval exposes the oracle to the zoo test, which
// lives in package dag_test because the models import dag.
var ArticulationsByRemoval = (*Graph).articulationsByRemoval

// reachableAvoiding reports whether 'to' is reachable from 'from'
// without visiting 'avoid'.
func (g *Graph) reachableAvoiding(from, to, avoid int) bool {
	if from == avoid || to == avoid {
		return false
	}
	seen := make([]bool, len(g.nodes))
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == to {
			return true
		}
		for _, s := range g.succs[v] {
			if s != avoid && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// The one-sweep Articulations returns its definition's list, in the
// same order, on random series-parallel graphs and on random DAGs whose
// skip edges cross one another.
func TestArticulationsMatchRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 200; trial++ {
		g := randomSP(t, rng)
		if trial%2 == 1 {
			g = randomDAG(t, rng)
		}
		if got, want := g.Articulations(), g.articulationsByRemoval(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Articulations %v, by removal %v", trial, names(g, got), names(g, want))
		}
	}
}

func TestDecomposeDeepParallel(t *testing.T) {
	g := deepParallel(t, 9, 4)
	segs, err := g.Decompose(0)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	var line, par int
	for _, s := range segs {
		if s.IsParallel() {
			par++
			if len(s.Branches) != 4 {
				t.Errorf("parallel segment has %d branches, want 4", len(s.Branches))
			}
			for _, b := range s.Branches {
				if len(b) != 1 {
					t.Errorf("branch interior = %v, want single node", b)
				}
			}
		} else {
			line++
		}
	}
	// 10 articulation nodes (input + 9 joins) and 9 parallel regions.
	if line != 10 || par != 9 {
		t.Errorf("line=%d par=%d, want 10/9", line, par)
	}
}

func TestDecomposeFig9(t *testing.T) {
	g := fig9Graph(t)
	segs, err := g.Decompose(0)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3 (v0, parallel, v7)", len(segs))
	}
	if segs[0].IsParallel() || segs[2].IsParallel() || !segs[1].IsParallel() {
		t.Fatalf("segment shapes wrong: %+v", segs)
	}
	if len(segs[1].Branches) != 3 {
		t.Errorf("parallel region has %d branches, want 3", len(segs[1].Branches))
	}
}

func TestDecomposeLine(t *testing.T) {
	g := lineGraph(t)
	segs, err := g.Decompose(0)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if len(segs) != g.Len() {
		t.Errorf("line decomposition should be one segment per node, got %d", len(segs))
	}
	for _, s := range segs {
		if s.IsParallel() {
			t.Error("line graph must have no parallel segments")
		}
	}
}

// residualGraph has a bypass edge straight from entry to exit, like a
// MobileNet bottleneck residual module.
func TestDecomposeResidualBypass(t *testing.T) {
	s := tensor.NewCHW(4, 8, 8)
	g := New("residual")
	in := g.Add(&nn.Input{LayerName: "in", Shape: s})
	a := g.Add(nn.NewActivation("body1", nn.ReLU), in)
	b := g.Add(nn.NewActivation("body2", nn.ReLU), a)
	g.Add(&nn.Add{LayerName: "join"}, b, in)
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	segs, err := g.Decompose(0)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	// in, parallel{[body1 body2], []}, join
	if len(segs) != 3 || !segs[1].IsParallel() {
		t.Fatalf("segments = %+v", segs)
	}
	br := segs[1].Branches
	if len(br) != 2 {
		t.Fatalf("branches = %v, want 2 (body + empty bypass)", br)
	}
	hasEmpty, hasBody := false, false
	for _, b := range br {
		switch len(b) {
		case 0:
			hasEmpty = true
		case 2:
			hasBody = true
		}
	}
	if !hasEmpty || !hasBody {
		t.Errorf("want one empty bypass branch and one 2-node body, got %v", br)
	}
}

func TestDecomposeBranchLimit(t *testing.T) {
	g := deepParallel(t, 1, 5)
	if _, err := g.Decompose(3); !errors.Is(err, ErrTooManyPaths) {
		t.Errorf("want ErrTooManyPaths with tight branch limit, got %v", err)
	}
}
