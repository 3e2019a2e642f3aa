package dag_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// frozenPaths holds, per zoo model, an FNV-64a digest of its Fig. 9
// path walk: every AllPaths path in order where CountPaths is at most
// 1024 (a marker otherwise: GoogLeNet and Inception-v4 have 2^18 and
// ~6.5·10^10; MobileNet-v2's 1 024 is enumerated), then every Decompose segment — node,
// entry, exit and each branch, in order. The digests were recorded
// before AllPaths and Decompose shared one walk; a refactor of the walk
// must leave every one unchanged. A diff here means a path, a branch or
// their order moved.
var frozenPaths = map[string]string{
	"alexnet":     "b0451ba6527fab84",
	"googlenet":   "84ec8196251d5756",
	"inceptionv4": "d8f2d56390d6bcbe",
	"mobilenetv2": "2a075e9383f63f98",
	"nin":         "74bbdd2f49f9eb84",
	"resnet18":    "bf0ed405ad4d1a07",
	"squeezenet":  "0259cf4f364b57c2",
	"tinyyolov2":  "2ec1c27d36065ca4",
	"vgg16":       "5fcfeac485f07ca4",
}

// TestPathWalkFrozen also holds Sink() to the one zoo node with no
// successors.
func TestPathWalkFrozen(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		for id := 0; id < g.Len(); id++ {
			if none := len(g.Succs(id)) == 0; none != (id == g.Sink()) {
				t.Errorf("%s: node %d has %d successors and Sink() is %d", name, id, len(g.Succs(id)), g.Sink())
			}
		}
		h := fnv.New64a()
		u64 := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
		ints := func(vs []int) {
			u64(uint64(len(vs)))
			for _, v := range vs {
				u64(uint64(v))
			}
		}
		if g.CountPaths() <= 1024 {
			paths, err := g.AllPaths(1024)
			if err != nil {
				t.Fatalf("%s: AllPaths: %v", name, err)
			}
			u64(uint64(len(paths)))
			for _, p := range paths {
				ints(p)
			}
		} else {
			u64(^uint64(0))
		}
		segs, err := g.Decompose(0)
		if err != nil {
			t.Fatalf("%s: Decompose: %v", name, err)
		}
		u64(uint64(len(segs)))
		for _, s := range segs {
			u64(uint64(s.Node))
			u64(uint64(s.Entry))
			u64(uint64(s.Exit))
			u64(uint64(len(s.Branches)))
			for _, b := range s.Branches {
				ints(b)
			}
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		if want := frozenPaths[name]; got != want {
			t.Errorf("%s: path walk digest %s, frozen %q (a path, a branch or their order moved)", name, got, want)
		}
	}
}

// A one-node graph's only path is its source, which is also its sink.
func TestAllPathsOneNode(t *testing.T) {
	g := dag.New("one")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 2, 2)})
	g.MustFinalize()
	paths, err := g.AllPaths(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !slices.Equal(paths[0], []int{in}) {
		t.Errorf("AllPaths = %v, want [[%d]]", paths, in)
	}
	segs, err := g.Decompose(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].IsParallel() || segs[0].Node != in {
		t.Errorf("Decompose = %+v, want one line step at %d", segs, in)
	}
}

// A direct edge between two articulations is a line step after a line
// step, with no region between them.
func TestDecomposeDirectEdge(t *testing.T) {
	g := dag.New("edge")
	in := g.Add(&nn.Input{LayerName: "in", Shape: tensor.NewCHW(1, 2, 2)})
	out := g.Add(nn.NewActivation("relu", nn.ReLU), in)
	g.MustFinalize()
	segs, err := g.Decompose(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].IsParallel() || segs[1].IsParallel() ||
		segs[0].Node != in || segs[1].Node != out {
		t.Errorf("Decompose = %+v, want line steps %d then %d", segs, in, out)
	}
}

// Past its limit the walk stops with ErrTooManyPaths from either
// caller: GoogLeNet has 4^9 source→sink paths and four branches in
// its first Inception region.
func TestPathWalkLimitOnZoo(t *testing.T) {
	g := models.MustBuild("googlenet")
	if paths, err := g.AllPaths(1024); !errors.Is(err, dag.ErrTooManyPaths) || paths != nil {
		t.Errorf("AllPaths(1024) = %d paths, %v; want ErrTooManyPaths", len(paths), err)
	}
	if segs, err := g.Decompose(3); !errors.Is(err, dag.ErrTooManyPaths) || segs != nil {
		t.Errorf("Decompose(3) = %d segments, %v; want ErrTooManyPaths", len(segs), err)
	}
}
