package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"dnnjps/internal/models"
	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// frozenLogits holds a SHA-256 of the float32 bits of the logits —
// the input of the softmax sink — of four zoo models at n = 1 and in a
// packed batch of n = 3, and of int8 MobileNet-v2 at n = 1, on
// whichever float32 GEMM path this process runs. "asm" is the assembly
// driver, where the 12×16 and 6×16 tiles agree bit for bit; "panel" is
// the pure-Go path (-tags noasm, or a host without AVX2+FMA). The digests were recorded before the fused im2col packer
// lowered a patch row once per K row instead of once per 16-column
// strip: packing is a pure copy, so a rewrite of it, or of the one row
// lowering the int8 path shares, must leave every one of them as it is.
var frozenLogits = map[string]map[string]string{
	"asm": {
		"alexnet/n1":          "901d83d51f4d5b0e88b9cfe90bb4ada6d5469d5ce73e8c8028a5b28d974729ed",
		"alexnet/n3":          "b3e1b58bb317469b4cdd1e57a0d5895d72f1cc686ca10b575374cd467c581e1e",
		"googlenet/n1":        "ac826658ab1a8726433cb96b90c53ab5b2159b19aefd4f98aa16c3db61d0a198",
		"googlenet/n3":        "e52d6c2f1e381dd2469b7c138e66941c9919d0b32640d5aad5186d882c012c78",
		"resnet18/n1":         "8c7a5014756edddf15cdfc364272676803186f8b6e1e1359a03133dc4dd2877a",
		"resnet18/n3":         "1d5fc4e66bf8310717d2e1fb8b20b1c5252e1eba9224b1ed225d04c5c7410cf0",
		"mobilenetv2/n1":      "574d5c4f004e241f5d62f1a75fb7bab06570739932d7bffb644a81587f2bfd58",
		"mobilenetv2/n3":      "c7c85336cff30f82015e0b91c934cfa1f13217d2041d3bf1140869f6f81b654e",
		"mobilenetv2/int8/n1": "0b8cff44796193f6837894b14b7d0d7ae704884600149289d48a673f8bf5a0c3",
	},
	"panel": {
		"alexnet/n1":          "e4337c431b151d53d4ea6cc3701a24ec9fb6cb068cdc46e91568c7b894556daf",
		"alexnet/n3":          "78369edb51e2dbf79549875a4c99d59a5974096ef0ad48d29a0f2173ea81b3d0",
		"googlenet/n1":        "cef14cab993389b1a6157b4fa60a66cf154060f66e5de6188802f78b12797a25",
		"googlenet/n3":        "829ad3c69484f8a1472e2d3a0b86b35826a53c513b4265aa55b8fd2780359db0",
		"resnet18/n1":         "ceb69d16543246960ef8db33a337492da2a61c21e7c0d9c7419a0c39e40b2a00",
		"resnet18/n3":         "e78ed2e12acfa46f366d2b471de849ba7141ff7637a44ba1de6b67350c95fe2d",
		"mobilenetv2/n1":      "5fe8598245652803d4d27f6d5182ac81caf8f7e5f1280c01dbbb66c5b2d76c62",
		"mobilenetv2/n3":      "873deedb814828b0de0a5c777bf2708fa12f7dfd28dd6b4fc1cf8e84dabd81e0",
		"mobilenetv2/int8/n1": "ba40b59d0c30bba204774da3e10089b3e11f3c5a6eaab4763a8179ff6905e240",
	},
}

// logitsDigest runs one pass of n inputs (seeds 700…) through m up to
// the softmax's input and returns the SHA-256 of its bits in the
// packed layout.
func logitsDigest(t *testing.T, m *Model, n int) string {
	t.Helper()
	g := m.Graph()
	sink := g.Sink()
	if _, ok := g.Node(sink).Layer.(*nn.Softmax); !ok || len(g.Preds(sink)) != 1 {
		t.Fatalf("%s: sink is not a softmax over one input", g.Name())
	}
	topo := g.Topo()
	inputs := make([]*tensor.Tensor, n)
	for b := range inputs {
		inputs[b] = randInput(g.Node(g.Source()).OutShape, 700+int64(b))
	}
	packed, err := PackBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Span(-1, packed, n, topo[:len(topo)-1], g.Preds(sink)[0])
	if err != nil {
		t.Fatalf("%s n=%d: %v", g.Name(), n, err)
	}
	h := sha256.New()
	var w [4]byte
	for _, v := range out.Data {
		binary.LittleEndian.PutUint32(w[:], math.Float32bits(v))
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestForwardFrozen holds the engine's outputs to the bit on the GEMM
// path this process runs (see frozenLogits), and where that is the
// AVX-512 tile, on the AVX2 tile too. A diff names the model, the batch
// width, the path and the tile whose logits moved.
func TestForwardFrozen(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full forwards of four zoo models, some twice")
	}
	path := "panel"
	if asmOK {
		path = "asm"
	}
	check := func(tile string) {
		want := frozenLogits[path]
		got := map[string]string{}
		for _, name := range []string{"alexnet", "googlenet", "resnet18", "mobilenetv2"} {
			m := Load(models.MustBuild(name), 1).Parallel(2)
			for _, n := range []int{1, 3} {
				got[fmt.Sprintf("%s/n%d", name, n)] = logitsDigest(t, m, n)
			}
		}
		q := Load(models.MustBuild("mobilenetv2"), 1)
		cal, err := q.CalibrateSynthetic(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Quantize(cal); err != nil {
			t.Fatal(err)
		}
		got["mobilenetv2/int8/n1"] = logitsDigest(t, q, 1)
		for key, d := range got {
			if d != want[key] {
				t.Errorf("%s on the %s path (%s): logits digest %s, frozen %s", key, path, tile, d, want[key])
			}
		}
	}
	check("engine's tile")
	if asmAVX512OK {
		onAVX2Tile(func() { check("AVX2 tile") })
	}
}
