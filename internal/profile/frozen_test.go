package profile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/tensor"
)

// frozenCurves holds, per zoo model × deployment × channel, an FNV-64a
// digest of the math.Float64bits of every field of BuildCurve, Reprice
// to every other channel, BlockProfile and PathCurve over every path.
// The digests were recorded from the profile code before its builders
// shared one cost walk, and re-recorded on the three presets alone when
// a 4G channel with a 3 Mb/s reply leg left the grid; a refactor of how
// a cut is priced must leave every one of them unchanged. A diff here means some curve value moved
// by at least one bit.
var frozenCurves = map[string]string{
	"alexnet/f32/3G":         "11a7a2cbc7aaf17f",
	"alexnet/f32/4G":         "7f767f7da6530696",
	"alexnet/f32/Wi-Fi":      "44d5a55093d73191",
	"alexnet/int8/3G":        "b7d06b151ac89c38",
	"alexnet/int8/4G":        "a5fa23defcd79261",
	"alexnet/int8/Wi-Fi":     "ed14c0827f6b8155",
	"googlenet/f32/3G":       "82a1ed7542a61652",
	"googlenet/f32/4G":       "847a51f90adb0a22",
	"googlenet/f32/Wi-Fi":    "007229d23ab3793c",
	"googlenet/int8/3G":      "c8516aac5cadf6cf",
	"googlenet/int8/4G":      "761053f071de9ce2",
	"googlenet/int8/Wi-Fi":   "a2eb525b763ec17b",
	"inceptionv4/f32/3G":     "3e4e78a74ac6b8ca",
	"inceptionv4/f32/4G":     "b5f27fb036172123",
	"inceptionv4/f32/Wi-Fi":  "2615853e5b3cac57",
	"inceptionv4/int8/3G":    "ca02f437e3ed6a43",
	"inceptionv4/int8/4G":    "796919f445a99536",
	"inceptionv4/int8/Wi-Fi": "946dc6d30faf83af",
	"mobilenetv2/f32/3G":     "901cd82e08c0f2b7",
	"mobilenetv2/f32/4G":     "51e5260d17c3b2b0",
	"mobilenetv2/f32/Wi-Fi":  "e0f5666551acc978",
	"mobilenetv2/int8/3G":    "0baf6aa17f4be853",
	"mobilenetv2/int8/4G":    "19d0e4c2c33c3f86",
	"mobilenetv2/int8/Wi-Fi": "3083aa84c5110abf",
	"nin/f32/3G":             "e8ba3603583fd726",
	"nin/f32/4G":             "a911c638c7399c9a",
	"nin/f32/Wi-Fi":          "dc7a0f0a830465de",
	"nin/int8/3G":            "5ef78ab4e5f6479b",
	"nin/int8/4G":            "ee4cfb2dcb2290d8",
	"nin/int8/Wi-Fi":         "a1e30327c0d655ec",
	"resnet18/f32/3G":        "0ef9ec45c69a1e5c",
	"resnet18/f32/4G":        "6959767646a2d5e1",
	"resnet18/f32/Wi-Fi":     "3fb0518897165906",
	"resnet18/int8/3G":       "e1b5fbf9e2b10748",
	"resnet18/int8/4G":       "5927f49d29a0d695",
	"resnet18/int8/Wi-Fi":    "5f775a165d1b1017",
	"squeezenet/f32/3G":      "ddfc779e97f2b856",
	"squeezenet/f32/4G":      "26ee2ad5bfcfd0e2",
	"squeezenet/f32/Wi-Fi":   "6c071a052fe42dd8",
	"squeezenet/int8/3G":     "fabc5c16d375b2cc",
	"squeezenet/int8/4G":     "6b08969368b74f56",
	"squeezenet/int8/Wi-Fi":  "41fdc3ad68d4cf29",
	"tinyyolov2/f32/3G":      "814352e593aee6e9",
	"tinyyolov2/f32/4G":      "f772c46b06c36584",
	"tinyyolov2/f32/Wi-Fi":   "e4ecee20be12028e",
	"tinyyolov2/int8/3G":     "2c9dec5bfe885fe0",
	"tinyyolov2/int8/4G":     "1de0c27cdf599e91",
	"tinyyolov2/int8/Wi-Fi":  "0c3f27f5c0972f61",
	"vgg16/f32/3G":           "4a69cef1526a1c4f",
	"vgg16/f32/4G":           "97ab8ece53e7b36e",
	"vgg16/f32/Wi-Fi":        "3b593bea5758d10d",
	"vgg16/int8/3G":          "1a0d7a2c16c97411",
	"vgg16/int8/4G":          "a3bbd06cfd7ca8db",
	"vgg16/int8/Wi-Fi":       "a5b3021716376d3d",
}

// frozenChannels are the paper's three presets.
var frozenChannels = []struct {
	key string
	ch  netsim.Channel
}{
	{"3G", netsim.ThreeG},
	{"4G", netsim.FourG},
	{"Wi-Fi", netsim.WiFi},
}

// frozenPaths lists every source→sink path of g, or — where there are
// more than 64 — the Decompose path that takes the first branch of
// every parallel region.
func frozenPaths(t *testing.T, g *dag.Graph) [][]int {
	t.Helper()
	paths, err := g.AllPaths(64)
	if err == nil {
		return paths
	}
	if !errors.Is(err, dag.ErrTooManyPaths) {
		t.Fatalf("%s: AllPaths: %v", g.Name(), err)
	}
	segs, err := g.Decompose(0)
	if err != nil {
		t.Fatalf("%s: Decompose: %v", g.Name(), err)
	}
	var path []int
	for _, s := range segs {
		if s.IsParallel() {
			path = append(path, s.Branches[0]...)
		} else {
			path = append(path, s.Node)
		}
	}
	return [][]int{path}
}

type bitHash struct{ hash.Hash64 }

func (h bitHash) u64(v uint64)  { _ = binary.Write(h, binary.LittleEndian, v) }
func (h bitHash) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h bitHash) str(s string)  { h.u64(uint64(len(s))); _, _ = h.Write([]byte(s)) }

func (h bitHash) curve(c *Curve) {
	h.str(c.Model)
	h.str(c.Channel.Name)
	h.f64(c.Channel.UplinkMbps)
	h.f64(c.Channel.SetupMs)
	h.f64(0) // downlink slot, held at 0: no frozen channel models a reply leg
	h.u64(uint64(c.Len()))
	for i := range c.F {
		h.f64(c.F[i])
		h.f64(c.G[i])
		h.f64(c.CloudMs[i])
		h.u64(uint64(c.Bytes[i]))
		h.str(c.Labels[i])
	}
}

func TestCurvesFrozen(t *testing.T) {
	deployments := []struct {
		key    string
		mobile Device
		dt     tensor.DType
	}{
		{"f32", RaspberryPi4(), tensor.Float32},
		{"int8", RaspberryPi4().Quantized(), tensor.Int8},
	}
	cloud := CloudGPU()
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		paths := frozenPaths(t, g)
		for _, dep := range deployments {
			for _, fc := range frozenChannels {
				h := bitHash{fnv.New64a()}
				c := BuildCurve(g, dep.mobile, cloud, fc.ch, dep.dt)
				h.curve(c)
				for _, other := range frozenChannels {
					if other.key != fc.key {
						h.curve(c.Reprice(other.ch))
					}
				}
				for _, s := range BlockProfile(g, dep.mobile, cloud, fc.ch, dep.dt) {
					h.str(s.Label)
					h.f64(s.MobileMs)
					h.f64(s.CloudMs)
					h.f64(s.CommMs)
					h.u64(uint64(s.Bytes))
				}
				for _, p := range paths {
					h.curve(PathCurve(g, p, dep.mobile, cloud, fc.ch, dep.dt))
				}
				key := name + "/" + dep.key + "/" + fc.key
				got := fmt.Sprintf("%016x", h.Sum64())
				if want, ok := frozenCurves[key]; !ok {
					t.Errorf("no frozen digest for %s: add %q: %q,", key, key, got)
				} else if got != want {
					t.Errorf("%s: curves digest %s, frozen %s (a curve value moved)", key, got, want)
				}
			}
		}
	}
	if n := len(models.Names()) * len(deployments) * len(frozenChannels); len(frozenCurves) != n {
		t.Errorf("%d frozen digests, want one per case (%d)", len(frozenCurves), n)
	}

	// An empty path prices nothing: an empty curve, not a panic.
	c := PathCurve(models.MustBuild("alexnet"), nil, RaspberryPi4(), cloud, netsim.FourG, tensor.Float32)
	if c.Len() != 0 || len(c.G) != 0 || len(c.CloudMs) != 0 || len(c.Bytes) != 0 || len(c.Labels) != 0 {
		t.Errorf("empty path: curve has %d/%d/%d/%d/%d positions, want none",
			len(c.F), len(c.G), len(c.CloudMs), len(c.Bytes), len(c.Labels))
	}
}
