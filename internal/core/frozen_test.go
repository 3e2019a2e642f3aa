package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// frozenChainPlans holds, per zoo model, an FNV-64a digest of the
// model's Articulations and of every JPSChain plan on frozenChain's
// topologies — {3G, 4G, Wi-Fi} access × depth 2–4 × frozenChainN jobs:
// the cuts, the sequence's job IDs, the math.Float64bits of its stages
// and of the makespan. The digests were recorded before the sequencer
// and the articulation sweep were made incremental; a refactor of
// either must leave every one of them unchanged. A diff here means
// some plan moved by at least one bit.
var frozenChainPlans = map[string]string{
	"alexnet":     "dc6c5813da2e7a0f",
	"googlenet":   "b2df3d693697cbd7",
	"inceptionv4": "d943cb52f2c5f0ee",
	"mobilenetv2": "f8f0cd570355d14e",
	"nin":         "99a0732ff5f0db42",
	"resnet18":    "d69c0db074745d55",
	"squeezenet":  "6ddbe68071702a10",
	"tinyyolov2":  "3c0e008067813e01",
	"vgg16":       "0d914e523ec39073",
}

var frozenChainN = []int{1, 2, 3, 7, 20, 100, 150}

// frozenChain is a depth-cut chain behind the access link: the mobile,
// depth-1 intermediate tiers of rising speed, the cloud; the hops past
// the access link are wired.
func frozenChain(access netsim.Channel, depth int) Chain {
	pi, gpu := devices()
	tiers := []profile.Device{gpu.Scaled(0.25), gpu.Scaled(0.5), gpu.Scaled(0.75)}
	wired := []netsim.Channel{
		{Name: "backhaul", UplinkMbps: 100, SetupMs: 3},
		{Name: "wan", UplinkMbps: 40, SetupMs: 15},
		{Name: "core", UplinkMbps: 200, SetupMs: 1},
	}
	ch := Chain{Devices: []profile.Device{pi}, Links: []netsim.Channel{access}, DType: tensor.Float32}
	ch.Devices = append(append(ch.Devices, tiers[:depth-1]...), gpu)
	ch.Links = append(ch.Links, wired[:depth-1]...)
	return ch
}

type planHash struct{ hash.Hash64 }

func (h planHash) u64(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }

func (h planHash) ints(vs []int) {
	h.u64(uint64(len(vs)))
	for _, v := range vs {
		h.u64(uint64(v))
	}
}

func (h planHash) plan(p *ChainPlan) {
	h.u64(uint64(len(p.Cuts)))
	for _, c := range p.Cuts {
		h.ints(c)
	}
	h.ints(jobIDs(p.Sequence))
	for _, j := range p.Sequence {
		for _, s := range j.Stages {
			h.u64(math.Float64bits(s))
		}
	}
	h.u64(math.Float64bits(p.Makespan))
}

func TestJPSChainFrozen(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		h := planHash{fnv.New64a()}
		h.ints(g.Articulations())
		for _, access := range netsim.Presets() {
			for depth := 2; depth <= 4; depth++ {
				ch := frozenChain(access, depth)
				for _, n := range frozenChainN {
					p, err := JPSChain(g, ch, n)
					if err != nil {
						t.Fatalf("%s/%s depth %d n=%d: %v", name, access.Name, depth, n, err)
					}
					h.plan(p)
				}
			}
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		if want := frozenChainPlans[name]; got != want {
			t.Errorf("%s: chain plans digest %s, frozen %q (a plan or articulation moved)", name, got, want)
		}
	}
}

// frozenLinePlans holds, per zoo model, an FNV-64a digest of every line
// plan the two-stage planners make on its curve at {3G, 4G, Wi-Fi} for
// frozenChainN jobs: JPS, JPSPaperRatio, JPSBestMix, JPSPlus,
// TwoPointSearch over every raw position, PO, CO, LO, Replan at the next
// preset and ReplanWithHint there with a 5 ms queue hint. Each plan
// adds its cuts, the sequence's job IDs, the math.Float64bits of every
// A and B, of the makespan and of CloudTailMs. The digests were
// recorded while every candidate split was still built and sorted
// before it was compared; pricing candidates in place must leave every
// one of them unchanged. A diff here means some line plan moved by at
// least one bit.
var frozenLinePlans = map[string]string{
	"alexnet":     "ad7a6c9916a2f51a",
	"googlenet":   "4df2fd04aca448f7",
	"inceptionv4": "5fa1db9b818e88b9",
	"mobilenetv2": "f4352b55850c3e8e",
	"nin":         "50735b056a1e4eba",
	"resnet18":    "56c4a70af9d29299",
	"squeezenet":  "15b7c6351c85beab",
	"tinyyolov2":  "db4e2a29a31d28c9",
	"vgg16":       "eeb36f4c9044f0d7",
}

func (h planHash) linePlan(p *Plan) {
	h.ints(p.Cuts)
	h.u64(uint64(len(p.Sequence)))
	for _, j := range p.Sequence {
		h.u64(uint64(j.ID))
		h.u64(math.Float64bits(j.A))
		h.u64(math.Float64bits(j.B))
	}
	h.u64(math.Float64bits(p.Makespan))
	h.u64(math.Float64bits(p.CloudTailMs))
}

func TestLinePlansFrozen(t *testing.T) {
	pi, gpu := devices()
	presets := netsim.Presets()
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		h := planHash{fnv.New64a()}
		for ci, ch := range presets {
			c := profile.BuildCurve(g, pi, gpu, ch, tensor.Float32)
			raw := make([]int, c.Len())
			for i := range raw {
				raw[i] = i
			}
			next := presets[(ci+1)%len(presets)]
			planners := []struct {
				name string
				plan func(n int) (*Plan, error)
			}{
				{"JPS", func(n int) (*Plan, error) { return JPS(c, n) }},
				{"JPSPaperRatio", func(n int) (*Plan, error) { return JPSPaperRatio(c, n) }},
				{"JPSBestMix", func(n int) (*Plan, error) { return JPSBestMix(c, n) }},
				{"JPSPlus", func(n int) (*Plan, error) { return JPSPlus(c, n) }},
				{"TwoPointSearch/raw", func(n int) (*Plan, error) { return TwoPointSearch(c, n, raw) }},
				{"PO", func(n int) (*Plan, error) { return PO(c, n) }},
				{"CO", func(n int) (*Plan, error) { return CO(c, n) }},
				{"LO", func(n int) (*Plan, error) { return LO(c, n) }},
				{"Replan", func(n int) (*Plan, error) { return Replan(c, next, n) }},
				{"ReplanWithHint", func(n int) (*Plan, error) { return ReplanWithHint(c, next, n, ServerHint{QueueMs: 5}) }},
			}
			for _, pl := range planners {
				for _, n := range frozenChainN {
					p, err := pl.plan(n)
					if err != nil {
						t.Fatalf("%s/%s %s n=%d: %v", name, ch.Name, pl.name, n, err)
					}
					h.linePlan(p)
				}
			}
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		if want := frozenLinePlans[name]; got != want {
			t.Errorf("%s: line plans digest %s, frozen %q (a plan moved)", name, got, want)
		}
	}
}
