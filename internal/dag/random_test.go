package dag

import (
	"fmt"
	"math/rand"
	"testing"

	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// randomSP builds a random series-parallel DNN graph: a chain of
// segments, each either a single shape-preserving layer or a parallel
// region of 2-4 branches (each branch a short chain) merged by Add.
func randomSP(t *testing.T, rng *rand.Rand) *Graph {
	t.Helper()
	s := tensor.NewCHW(4, 8, 8)
	g := New("randsp")
	prev := g.Add(&nn.Input{LayerName: "input", Shape: s})
	segs := 2 + rng.Intn(6)
	for seg := 0; seg < segs; seg++ {
		if rng.Intn(2) == 0 {
			prev = g.Add(nn.NewActivation(fmt.Sprintf("s%d", seg), nn.ReLU), prev)
			continue
		}
		branches := 2 + rng.Intn(3)
		var ends []int
		for b := 0; b < branches; b++ {
			cur := prev
			hops := 1 + rng.Intn(3)
			for h := 0; h < hops; h++ {
				cur = g.Add(nn.NewActivation(fmt.Sprintf("s%d_b%d_h%d", seg, b, h), nn.ReLU), cur)
			}
			ends = append(ends, cur)
		}
		prev = g.Add(&nn.Add{LayerName: fmt.Sprintf("s%d_join", seg)}, ends...)
	}
	g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, prev)
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

// randomDAG builds a random DAG that need not be series-parallel:
// every node reads one or two random earlier nodes, so skip edges
// cross, and a final Add joins every node nothing reads.
func randomDAG(t *testing.T, rng *rand.Rand) *Graph {
	t.Helper()
	g := New("randdag")
	g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(4, 8, 8)})
	read := []bool{false}
	for i := 1; i < 3+rng.Intn(20); i++ {
		a, b := rng.Intn(i), rng.Intn(i)
		read[a] = true
		if a == b || rng.Intn(2) == 0 {
			g.Add(nn.NewActivation(fmt.Sprintf("n%d", i), nn.ReLU), a)
		} else {
			read[b] = true
			g.Add(&nn.Add{LayerName: fmt.Sprintf("n%d", i)}, a, b)
		}
		read = append(read, false)
	}
	var ends []int
	for id, r := range read {
		if !r {
			ends = append(ends, id)
		}
	}
	if len(ends) > 1 {
		g.Add(&nn.Add{LayerName: "join"}, ends...)
	}
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

// Properties that must hold on any series-parallel DNN graph:
// decomposition partitions the node set, branch counts multiply to the
// path count, and articulations are exactly the line-step nodes plus
// region endpoints.
func TestRandomSeriesParallelInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		g := randomSP(t, rng)
		segs, err := g.Decompose(0)
		if err != nil {
			t.Fatalf("trial %d: Decompose: %v", trial, err)
		}
		// Partition: every node in exactly one segment slot.
		seen := map[int]int{}
		pathProduct := 1
		for _, s := range segs {
			if s.IsParallel() {
				pathProduct *= len(s.Branches)
				for _, br := range s.Branches {
					for _, id := range br {
						seen[id]++
					}
				}
			} else {
				seen[s.Node]++
			}
		}
		if len(seen) != g.Len() {
			t.Fatalf("trial %d: decomposition covers %d of %d nodes", trial, len(seen), g.Len())
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("trial %d: node %d appears %d times", trial, id, c)
			}
		}
		// Path count = product of branch counts (series-parallel).
		if got := g.CountPaths(); got != pathProduct {
			t.Fatalf("trial %d: CountPaths %d != product %d", trial, got, pathProduct)
		}
		// Articulations = the non-parallel segment nodes.
		arts := g.Articulations()
		var lineNodes int
		for _, s := range segs {
			if !s.IsParallel() {
				lineNodes++
			}
		}
		if len(arts) != lineNodes {
			t.Fatalf("trial %d: %d articulations vs %d line segments", trial, len(arts), lineNodes)
		}
		// AllPaths (when feasible) agrees with CountPaths and each path
		// is topo-ordered and spans source->sink.
		if pathProduct <= 64 {
			paths, err := g.AllPaths(64)
			if err != nil {
				t.Fatalf("trial %d: AllPaths: %v", trial, err)
			}
			if len(paths) != pathProduct {
				t.Fatalf("trial %d: AllPaths %d != %d", trial, len(paths), pathProduct)
			}
			for _, p := range paths {
				if p[0] != g.Source() || p[len(p)-1] != g.Sink() {
					t.Fatalf("trial %d: path endpoints wrong", trial)
				}
			}
		}
	}
}

// Cut feasibility is preserved under ancestor closure on random
// graphs, and cut bytes are non-negative and bounded by total tensor
// volume.
func TestRandomGraphCutProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 40; trial++ {
		g := randomSP(t, rng)
		var totalBytes int
		for _, id := range g.Topo() {
			totalBytes += g.OutBytes(id, tensor.Float32)
		}
		for probe := 0; probe < 10; probe++ {
			id := rng.Intn(g.Len())
			mobile := g.Ancestors(id)
			if !g.ValidCut(mobile) {
				t.Fatalf("trial %d: ancestor closure of %d is not a valid cut", trial, id)
			}
			cb := g.CutBytes(mobile, tensor.Float32)
			if cb < 0 || cb > totalBytes {
				t.Fatalf("trial %d: cut bytes %d out of [0,%d]", trial, cb, totalBytes)
			}
		}
	}
}
