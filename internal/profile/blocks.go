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

// BlockProfile groups the line view's priced table by block label,
// reproducing the per-layer breakdown of Fig. 4 (where each x-axis
// "layer" is a block of conv/pool/activation operations).
func BlockProfile(g *dag.Graph, mobile, cloud Device, ch netsim.Channel, dt tensor.DType) []BlockStat {
	t := PriceUnits(g, LineView(g), []Device{mobile, cloud}, dt)
	comm := t.CutMs(ch)
	var stats []BlockStat
	for i, u := range t.Units {
		if len(stats) == 0 || stats[len(stats)-1].Label != u.Label {
			stats = append(stats, BlockStat{Label: u.Label})
		}
		// A block ships what its last unit ships: nothing for the sink's.
		last := &stats[len(stats)-1]
		last.MobileMs += t.Ms[0][i]
		last.CloudMs += t.Ms[1][i]
		last.CommMs = comm[i]
		last.Bytes = t.Bytes[i]
	}
	return stats
}

// PathUnits is one independent path of a converted general-structure
// DAG (Alg. 3) as units of one node each: position i means "cut this
// path after its i-th node".
func PathUnits(g *dag.Graph, path []int) []Unit {
	units := make([]Unit, len(path))
	for i, id := range path {
		units[i] = Unit{Nodes: path[i : i+1], Exit: id, Label: g.Node(id).Layer.Name()}
	}
	return units
}
