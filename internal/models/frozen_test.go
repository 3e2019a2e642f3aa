package models

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// frozenNodeSizes holds, per zoo model, an FNV-64a digest of every
// node in topological order: its output shape (rank, then each dim),
// the math.Float64bits of its FLOPs and its parameter count. A layer
// refactor must leave every digest unchanged; a diff here means some
// node's shape or cost moved by at least one bit.
var frozenNodeSizes = map[string]string{
	"alexnet":     "83505be3e6a5450a",
	"googlenet":   "1658ec27e816fe1b",
	"inceptionv4": "cfe92e5ddc0bb704",
	"mobilenetv2": "948c8722357eb9ec",
	"nin":         "2c973b31ce4fc69e",
	"resnet18":    "aaf0d0d09cdc4376",
	"squeezenet":  "37ca574d7cdfc290",
	"tinyyolov2":  "b4d1abb3e8b72d46",
	"vgg16":       "9a2acba912c29bcb",
}

func TestNodeSizesFrozen(t *testing.T) {
	for _, name := range Names() {
		g := build(t, name)
		h := fnv.New64a()
		u64 := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
		for _, id := range g.Topo() {
			n := g.Node(id)
			u64(uint64(n.OutShape.Rank()))
			for _, d := range n.OutShape {
				u64(uint64(d))
			}
			u64(math.Float64bits(n.FLOPs))
			u64(uint64(n.Params))
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		if want := frozenNodeSizes[name]; got != want {
			t.Errorf("%s: node sizes digest %s, frozen %q (a shape, FLOPs or parameter count moved)", name, got, want)
		}
	}
}
