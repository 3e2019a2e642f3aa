package dag

import "fmt"

// ErrTooManyPaths is returned by AllPaths when the source→sink path
// count exceeds the caller's limit, and by Decompose when one region's
// does; deep general-structure networks (a chain of Inception modules
// has branch^modules paths) must use Decompose instead of AllPaths.
var ErrTooManyPaths = fmt.Errorf("dag: path count exceeds limit")

// AllPaths enumerates every source→sink path, the exact node
// duplication conversion of Fig. 9: a node with out-degree d appears
// on d downstream path families. Paths are returned as node-ID slices
// in topological order. limit bounds the number of paths (0 means 1024).
func (g *Graph) AllPaths(limit int) ([][]int, error) {
	g.mustFinalized()
	if limit <= 0 {
		limit = 1024
	}
	return g.paths(g.Source(), g.Sink(), limit)
}

// paths enumerates, depth first in successor order, every path from
// one node to another, both ends included. It stops with
// ErrTooManyPaths when a path past the limit-th reaches the end.
func (g *Graph) paths(from, to, limit int) ([][]int, error) {
	var paths [][]int
	var cur []int
	var walk func(v int) error
	walk = func(v int) error {
		cur = append(cur, v)
		defer func() { cur = cur[:len(cur)-1] }()
		if v == to {
			if len(paths) >= limit {
				return ErrTooManyPaths
			}
			paths = append(paths, append([]int(nil), cur...))
			return nil
		}
		for _, s := range g.succs[v] {
			if err := walk(s); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(from); err != nil {
		return nil, err
	}
	return paths, nil
}

// CountPaths returns the number of source→sink paths without
// enumerating them (dynamic programming over the topological order),
// saturating at maxInt to stay overflow-safe on pathological graphs.
func (g *Graph) CountPaths() int {
	g.mustFinalized()
	const maxInt = int(^uint(0) >> 1)
	count := make([]int, len(g.nodes))
	count[g.Source()] = 1
	for _, id := range g.topo {
		for _, s := range g.succs[id] {
			if count[s] > maxInt-count[id] {
				count[s] = maxInt
			} else {
				count[s] += count[id]
			}
		}
	}
	return count[g.Sink()]
}

// Articulations returns, in topological order, the nodes that lie on
// every source→sink path (including the source and sink themselves).
// These are the only single-node cut-points of a general DAG; the
// regions between consecutive articulations are the parallel segments
// Decompose splits into branches. Finalize computes the list once; do
// not mutate it.
func (g *Graph) Articulations() []int { g.mustFinalized(); return g.arts }

// articulations is the one sweep behind Articulations. Finalize
// guarantees one source, one sink and every node reachable from the
// source, so every node lies on some source→sink path. Along a path
// topological positions rise, so a path avoids v exactly when one of
// its edges jumps over v's position: v is an articulation iff no edge
// u→w has pos(u) < pos(v) < pos(w). One sweep in topological order,
// carrying the farthest position any earlier node's edge reaches,
// decides every node: O(V+E). A node's ID is its topological position
// (Add takes only earlier predecessors), so the sweep reads IDs as
// positions.
func (g *Graph) articulations() []int {
	var arts []int
	reach := 0 // farthest position an edge from positions < v lands on
	for v := range g.nodes {
		if reach <= v {
			arts = append(arts, v)
		}
		for _, s := range g.succs[v] {
			reach = max(reach, s)
		}
	}
	return arts
}

// Segment is one element of a series decomposition: either a single
// articulation node (a line step every path crosses) or a parallel
// region whose Branches are the independent paths between the
// enclosing articulation nodes (endpoints excluded).
type Segment struct {
	// Node is set for a line step (Parallel == nil).
	Node int
	// Branches holds the interior node IDs of each independent path of
	// a parallel region, in topological order. Nil for line steps.
	Branches [][]int
	// Entry and Exit are the articulation nodes delimiting a parallel
	// region. Unused for line steps.
	Entry, Exit int
}

// IsParallel reports whether the segment is a parallel region.
func (s *Segment) IsParallel() bool { return s.Branches != nil }

// Decompose splits the graph into a series of segments delimited by
// articulation nodes. This is the hierarchical form of the paper's
// Fig. 9 conversion: each parallel region's branches are exactly its
// independent paths, but regions are handled one at a time, so a chain
// of Inception modules stays linear in size instead of exponential.
// branchLimit bounds the paths enumerated inside one region (0 = 256).
func (g *Graph) Decompose(branchLimit int) ([]Segment, error) {
	g.mustFinalized()
	if branchLimit <= 0 {
		branchLimit = 256
	}
	arts := g.Articulations()
	var segs []Segment
	for i, a := range arts {
		segs = append(segs, Segment{Node: a})
		if i+1 >= len(arts) {
			break
		}
		next := arts[i+1]
		// A region's branches are the interiors of its entry→exit paths:
		// a nested region's are its flattened independent paths, as in
		// the paper's conversion.
		branches, err := g.paths(a, next, branchLimit)
		if err != nil {
			return nil, err
		}
		if len(branches) == 1 && len(branches[0]) == 2 {
			continue // direct edge a→next, no region between
		}
		for j, p := range branches {
			branches[j] = p[1 : len(p)-1]
		}
		segs = append(segs, Segment{Branches: branches, Entry: a, Exit: next})
	}
	return segs, nil
}
