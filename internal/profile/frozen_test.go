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
// shared one cost walk; a refactor of how a cut is priced must leave
// every one of them unchanged. A diff here means some curve value moved
// by at least one bit.
var frozenCurves = map[string]string{
	"alexnet/f32/3G":          "70569ac4fa51a91f",
	"alexnet/f32/4G":          "0f3c2beb2d7eef86",
	"alexnet/f32/Wi-Fi":       "c1f7ad3d32d49205",
	"alexnet/f32/4G+dl3":      "96ca05783b8a22c2",
	"alexnet/int8/3G":         "d148d128c32f8fa7",
	"alexnet/int8/4G":         "465b9f5229566526",
	"alexnet/int8/Wi-Fi":      "7b336bb0e934c494",
	"alexnet/int8/4G+dl3":     "6e3e4a37a2ea1a99",
	"googlenet/f32/3G":        "30de052b1ec7beb9",
	"googlenet/f32/4G":        "0830945f9cee12a1",
	"googlenet/f32/Wi-Fi":     "c051dfc26a5b0619",
	"googlenet/f32/4G+dl3":    "d2e7d4ac696b8a19",
	"googlenet/int8/3G":       "71f52d0f57991ae6",
	"googlenet/int8/4G":       "4d30a24850d203df",
	"googlenet/int8/Wi-Fi":    "1e61c456af5359f8",
	"googlenet/int8/4G+dl3":   "e7edd3a9be3b6121",
	"inceptionv4/f32/3G":      "9f909647a8d7eefa",
	"inceptionv4/f32/4G":      "0d6c20860cc13a93",
	"inceptionv4/f32/Wi-Fi":   "6f676023ca9b3693",
	"inceptionv4/f32/4G+dl3":  "82c6511ef8c7b6f5",
	"inceptionv4/int8/3G":     "27a7fcf9610c49e3",
	"inceptionv4/int8/4G":     "c0f68121cf6d1796",
	"inceptionv4/int8/Wi-Fi":  "758bf662ed713a8b",
	"inceptionv4/int8/4G+dl3": "270c326a481cf284",
	"mobilenetv2/f32/3G":      "7727a412fa66777e",
	"mobilenetv2/f32/4G":      "926418ae0958b8b5",
	"mobilenetv2/f32/Wi-Fi":   "6a1653338d90ae5f",
	"mobilenetv2/f32/4G+dl3":  "6ec2e5782c0c7ad5",
	"mobilenetv2/int8/3G":     "f4e3266b130ba7e0",
	"mobilenetv2/int8/4G":     "97c6937a61b35c01",
	"mobilenetv2/int8/Wi-Fi":  "f531e868a00cef2e",
	"mobilenetv2/int8/4G+dl3": "03101b2d61c551d3",
	"nin/f32/3G":              "fe27e640400b8b57",
	"nin/f32/4G":              "24060dfe236d001b",
	"nin/f32/Wi-Fi":           "31d94728eb7c97c1",
	"nin/f32/4G+dl3":          "e7a9a86dde6b535c",
	"nin/int8/3G":             "33b1a81d30a17cdf",
	"nin/int8/4G":             "7729e307c1fca854",
	"nin/int8/Wi-Fi":          "e699b1f5610fdf10",
	"nin/int8/4G+dl3":         "b39bc84951db473a",
	"resnet18/f32/3G":         "e4a6d72d5a7d819c",
	"resnet18/f32/4G":         "88e6d305ffa0dc31",
	"resnet18/f32/Wi-Fi":      "1d2cd6fcd0f7f226",
	"resnet18/f32/4G+dl3":     "842e487a4c4a1d93",
	"resnet18/int8/3G":        "254fe836bc1931d9",
	"resnet18/int8/4G":        "75199a35fb687070",
	"resnet18/int8/Wi-Fi":     "836f6a959f8018b4",
	"resnet18/int8/4G+dl3":    "6626cfb404df3765",
	"squeezenet/f32/3G":       "6d2bc402d6f135a0",
	"squeezenet/f32/4G":       "d1ab31ec6cecc3dc",
	"squeezenet/f32/Wi-Fi":    "0a8e19234419e0b2",
	"squeezenet/f32/4G+dl3":   "8bbc04624228a37c",
	"squeezenet/int8/3G":      "096d2a31661dfe89",
	"squeezenet/int8/4G":      "e4e158555267cdb3",
	"squeezenet/int8/Wi-Fi":   "29996e46602cb872",
	"squeezenet/int8/4G+dl3":  "ad3ac66de08f9609",
	"tinyyolov2/f32/3G":       "e88678461a622e40",
	"tinyyolov2/f32/4G":       "3c99faff191e2521",
	"tinyyolov2/f32/Wi-Fi":    "67228354fc014711",
	"tinyyolov2/f32/4G+dl3":   "8b4f84eb8763d5c6",
	"tinyyolov2/int8/3G":      "fc9205cb141ba4e3",
	"tinyyolov2/int8/4G":      "92f5ed62fef3503a",
	"tinyyolov2/int8/Wi-Fi":   "9380bfc1acdc49f4",
	"tinyyolov2/int8/4G+dl3":  "cf88317f93061856",
	"vgg16/f32/3G":            "210adc6311303a86",
	"vgg16/f32/4G":            "0c17f1f91d45cc93",
	"vgg16/f32/Wi-Fi":         "c878abb329712652",
	"vgg16/f32/4G+dl3":        "8430a3e599d15a2f",
	"vgg16/int8/3G":           "df48c6bebe048496",
	"vgg16/int8/4G":           "15345c1b5e7dd33c",
	"vgg16/int8/Wi-Fi":        "967ba343711e3f84",
	"vgg16/int8/4G+dl3":       "11e7f1419b40037b",
}

// frozenChannels are the paper's three presets plus 4G with a modeled
// 3 Mb/s reply leg, the one channel on which G carries RxMs.
var frozenChannels = []struct {
	key string
	ch  netsim.Channel
}{
	{"3G", netsim.ThreeG},
	{"4G", netsim.FourG},
	{"Wi-Fi", netsim.WiFi},
	{"4G+dl3", netsim.FourG.WithDownlink(3)},
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
	h.f64(c.Channel.DownlinkMbps)
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
