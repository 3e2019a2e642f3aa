package profile

import (
	"dnnjps/internal/dag"
	"dnnjps/internal/netsim"
	"dnnjps/internal/tensor"
)

// BlockStat is one row of a Fig. 4-style per-block profile: the mobile
// and cloud computation time of a named block and the upload time of
// the tensor leaving it.
type BlockStat struct {
	Label    string
	MobileMs float64
	CloudMs  float64
	CommMs   float64
	Bytes    int
}

// BlockProfile groups the per-unit costs of a PriceUnits walk of the
// line view by block label, reproducing the per-layer breakdown of
// Fig. 4 (where each x-axis "layer" is a block of conv/pool/activation
// operations).
func BlockProfile(g *dag.Graph, mobile, cloud Device, ch netsim.Channel, dt tensor.DType) []BlockStat {
	units := LineView(g)
	ms, _, bytes := PriceUnits(g, units, []Device{mobile, cloud}, dt)
	comm := priceCuts(ch, bytes)
	var stats []BlockStat
	for i, u := range units {
		if len(stats) == 0 || stats[len(stats)-1].Label != u.Label {
			stats = append(stats, BlockStat{Label: u.Label})
		}
		// A block ships what its last unit ships: nothing for the sink's.
		last := &stats[len(stats)-1]
		last.MobileMs += ms[0][i]
		last.CloudMs += ms[1][i]
		last.CommMs = comm[i]
		last.Bytes = bytes[i]
	}
	return stats
}

// PathCurve profiles one independent path of a converted
// general-structure DAG (Alg. 3): index i means "cut this path after
// its i-th node". F cumulates the path's own nodes (the scheduler
// deduplicates shared prefixes later, per the paper's modified
// Alg. 1); G is the upload time of the i-th node's tensor.
func PathCurve(g *dag.Graph, path []int, mobile, cloud Device, ch netsim.Channel, dt tensor.DType) *Curve {
	units := make([]Unit, len(path))
	for i, id := range path {
		units[i] = Unit{Nodes: path[i : i+1], Exit: id, Label: g.Node(id).Layer.Name()}
	}
	return curveOf(g.Name()+"/path", g, units, mobile, cloud, ch, dt)
}
