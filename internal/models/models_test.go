package models

import (
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/tensor"
)

func build(t *testing.T, name string) *dag.Graph {
	t.Helper()
	g, err := Build(name)
	if err != nil {
		t.Fatalf("Build(%q): %v", name, err)
	}
	return g
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 9 {
		t.Fatalf("Names() = %v, want 9 models", names)
	}
	for _, n := range names {
		g := build(t, n)
		if g.Name() != n {
			t.Errorf("model %q reports name %q", n, g.Name())
		}
	}
	if _, err := Build("lenet"); err == nil {
		t.Error("unknown model must error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuild on unknown model must panic")
		}
	}()
	MustBuild("lenet")
}

func TestPaperModels(t *testing.T) {
	pm := PaperModels()
	if len(pm) != 4 {
		t.Fatalf("PaperModels = %v", pm)
	}
	for _, n := range pm {
		build(t, n)
	}
}

func TestBlockOf(t *testing.T) {
	if BlockOf("conv1/relu") != "conv1" {
		t.Error("prefix extraction failed")
	}
	if BlockOf("input") != "input" {
		t.Error("names without slash are their own block")
	}
}

func TestAlexNetStructure(t *testing.T) {
	g := build(t, "alexnet")
	if !g.IsLine() {
		t.Error("AlexNet must be a line DAG")
	}
	// torchvision AlexNet: ~61.1M parameters.
	params := g.TotalParams()
	if params < 60e6 || params > 62e6 {
		t.Errorf("AlexNet params = %d, want ~61.1M", params)
	}
	// ~1.43 GFLOPs (multiply-add counted as 2).
	flops := g.TotalFLOPs()
	if flops < 1.3e9 || flops > 1.6e9 {
		t.Errorf("AlexNet FLOPs = %g, want ~1.43e9", flops)
	}
	// conv1 output: 64x55x55.
	n, ok := g.NodeByName("conv1/conv")
	if !ok {
		t.Fatal("conv1/conv missing")
	}
	if !n.OutShape.Equal(tensor.NewCHW(64, 55, 55)) {
		t.Errorf("conv1 shape = %v, want [64x55x55]", n.OutShape)
	}
	// Classifier output: 1000 classes.
	if !g.Node(g.Sink()).OutShape.Equal(tensor.NewVec(1000)) {
		t.Errorf("output shape = %v", g.Node(g.Sink()).OutShape)
	}
}

func TestVGG16Structure(t *testing.T) {
	g := build(t, "vgg16")
	if !g.IsLine() {
		t.Error("VGG16 must be a line DAG")
	}
	// ~138.4M parameters.
	params := g.TotalParams()
	if params < 135e6 || params > 141e6 {
		t.Errorf("VGG16 params = %d, want ~138M", params)
	}
	// ~30.9 GFLOPs.
	flops := g.TotalFLOPs()
	if flops < 29e9 || flops > 33e9 {
		t.Errorf("VGG16 FLOPs = %g, want ~31e9", flops)
	}
	// Final conv stage output 512x7x7 before the classifier.
	n, ok := g.NodeByName("block5/pool")
	if !ok {
		t.Fatal("block5/pool missing")
	}
	if !n.OutShape.Equal(tensor.NewCHW(512, 7, 7)) {
		t.Errorf("block5 shape = %v", n.OutShape)
	}
}

func TestNiNStructure(t *testing.T) {
	g := build(t, "nin")
	if !g.IsLine() {
		t.Error("NiN must be a line DAG")
	}
	if !g.Node(g.Sink()).OutShape.Equal(tensor.NewVec(1000)) {
		t.Errorf("output shape = %v", g.Node(g.Sink()).OutShape)
	}
}

func TestTinyYOLOv2Structure(t *testing.T) {
	g := build(t, "tinyyolov2")
	if !g.IsLine() {
		t.Error("Tiny YOLOv2 must be a line DAG")
	}
	// Output grid: 125x13x13.
	if !g.Node(g.Sink()).OutShape.Equal(tensor.NewCHW(125, 13, 13)) {
		t.Errorf("output shape = %v, want [125x13x13]", g.Node(g.Sink()).OutShape)
	}
	// Darknet reports ~6.97 BFLOPs for Tiny YOLOv2 at 416x416; our
	// count lands at ~6.3e9 (we exclude its bbox post-processing).
	flops := g.TotalFLOPs()
	if flops < 5e9 || flops > 8e9 {
		t.Errorf("TinyYOLO FLOPs = %g, want ~6.3e9", flops)
	}
}

func TestMobileNetV2Structure(t *testing.T) {
	g := build(t, "mobilenetv2")
	if g.IsLine() {
		t.Error("raw MobileNet-v2 has bypass links; must not be a line")
	}
	// ~3.5M parameters.
	params := g.TotalParams()
	if params < 3.2e6 || params > 3.8e6 {
		t.Errorf("MobileNetV2 params = %d, want ~3.5M", params)
	}
	// ~0.6 GFLOPs (300M MACs).
	flops := g.TotalFLOPs()
	if flops < 0.55e9 || flops > 0.75e9 {
		t.Errorf("MobileNetV2 FLOPs = %g, want ~0.6e9", flops)
	}
	// Bottleneck 2 (paper Fig. 10): expansion to 144 channels at 56x56.
	n, ok := g.NodeByName("bneck2/expand")
	if !ok {
		t.Fatal("bneck2/expand missing")
	}
	if !n.OutShape.Equal(tensor.NewCHW(144, 56, 56)) {
		t.Errorf("bneck2 expand shape = %v, want [144x56x56]", n.OutShape)
	}
	// Head conv output 1280x7x7.
	h, _ := g.NodeByName("head/conv")
	if !h.OutShape.Equal(tensor.NewCHW(1280, 7, 7)) {
		t.Errorf("head conv shape = %v", h.OutShape)
	}
	// 17 bottleneck modules: bneck0..bneck16 exist, bneck17 does not.
	if _, ok := g.NodeByName("bneck16/project"); !ok {
		t.Error("bneck16 missing")
	}
	if _, ok := g.NodeByName("bneck17/project"); ok {
		t.Error("unexpected bneck17")
	}
}

func TestResNet18Structure(t *testing.T) {
	g := build(t, "resnet18")
	if g.IsLine() {
		t.Error("ResNet-18 has residual links; must not be a line")
	}
	// ~11.7M parameters.
	params := g.TotalParams()
	if params < 11e6 || params > 12.5e6 {
		t.Errorf("ResNet18 params = %d, want ~11.7M", params)
	}
	// ~3.6 GFLOPs.
	flops := g.TotalFLOPs()
	if flops < 3.3e9 || flops > 4.0e9 {
		t.Errorf("ResNet18 FLOPs = %g, want ~3.6e9", flops)
	}
	// Stage shapes.
	n, _ := g.NodeByName("stage1_block1/add")
	if !n.OutShape.Equal(tensor.NewCHW(64, 56, 56)) {
		t.Errorf("stage1 shape = %v", n.OutShape)
	}
	n, _ = g.NodeByName("stage4_block1/add")
	if !n.OutShape.Equal(tensor.NewCHW(512, 7, 7)) {
		t.Errorf("stage4 shape = %v", n.OutShape)
	}
}

func TestGoogLeNetStructure(t *testing.T) {
	g := build(t, "googlenet")
	if g.IsLine() {
		t.Error("GoogLeNet has Inception branches; must not be a line")
	}
	// ~7M parameters (6.6-7.0M depending on LRN/bias conventions).
	params := g.TotalParams()
	if params < 5.5e6 || params > 7.5e6 {
		t.Errorf("GoogLeNet params = %d, want ~7M", params)
	}
	// ~3 GFLOPs (1.5G MACs).
	flops := g.TotalFLOPs()
	if flops < 2.5e9 || flops > 3.8e9 {
		t.Errorf("GoogLeNet FLOPs = %g, want ~3e9", flops)
	}
	// Inception 3a output: 256 channels at 28x28.
	n, ok := g.NodeByName("inc3a/concat")
	if !ok {
		t.Fatal("inc3a/concat missing")
	}
	if !n.OutShape.Equal(tensor.NewCHW(256, 28, 28)) {
		t.Errorf("inc3a shape = %v, want [256x28x28]", n.OutShape)
	}
	// Inception 5b output: 1024 channels at 7x7.
	n, _ = g.NodeByName("inc5b/concat")
	if !n.OutShape.Equal(tensor.NewCHW(1024, 7, 7)) {
		t.Errorf("inc5b shape = %v, want [1024x7x7]", n.OutShape)
	}
	// Each Inception module is a 4-branch parallel region.
	segs, err := g.Decompose(0)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	par := 0
	for _, s := range segs {
		if s.IsParallel() {
			par++
			if len(s.Branches) != 4 {
				t.Errorf("inception region has %d branches, want 4", len(s.Branches))
			}
		}
	}
	if par != 9 {
		t.Errorf("GoogLeNet has %d parallel regions, want 9", par)
	}
}

func TestSqueezeNetStructure(t *testing.T) {
	g := build(t, "squeezenet")
	if g.IsLine() {
		t.Error("SqueezeNet Fire modules branch; must not be a line")
	}
	// ~1.25M parameters (SqueezeNet's headline claim).
	params := g.TotalParams()
	if params < 1.1e6 || params > 1.5e6 {
		t.Errorf("SqueezeNet params = %d, want ~1.25M", params)
	}
	// ~1.7 GFLOPs (0.86G MACs).
	flops := g.TotalFLOPs()
	if flops < 1.3e9 || flops > 2.2e9 {
		t.Errorf("SqueezeNet FLOPs = %g, want ~1.7e9", flops)
	}
	// Fire2 output: 128 channels at 55x55 (64 + 64 expand branches).
	n, ok := g.NodeByName("fire2/concat")
	if !ok {
		t.Fatal("fire2/concat missing")
	}
	if !n.OutShape.Equal(tensor.NewCHW(128, 55, 55)) {
		t.Errorf("fire2 shape = %v, want [128x55x55]", n.OutShape)
	}
	// Eight Fire modules, each a 2-branch parallel region.
	segs, err := g.Decompose(0)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	par := 0
	for _, s := range segs {
		if s.IsParallel() {
			par++
			if len(s.Branches) != 2 {
				t.Errorf("fire region has %d branches, want 2", len(s.Branches))
			}
		}
	}
	if par != 8 {
		t.Errorf("SqueezeNet has %d parallel regions, want 8", par)
	}
}

func TestInceptionV4Structure(t *testing.T) {
	g := build(t, "inceptionv4")
	if g.IsLine() {
		t.Error("Inception-v4 must not be a line")
	}
	// ~42.7M parameters.
	params := g.TotalParams()
	if params < 40e6 || params > 45e6 {
		t.Errorf("InceptionV4 params = %d, want ~42.7M", params)
	}
	// ~24.6 GFLOPs (12.3 GMACs at 299x299).
	flops := g.TotalFLOPs()
	if flops < 20e9 || flops > 29e9 {
		t.Errorf("InceptionV4 FLOPs = %g, want ~24.6e9", flops)
	}
	// Stage output shapes from the paper.
	for name, want := range map[string]tensor.Shape{
		"stem/m5a_concat": tensor.NewCHW(384, 35, 35),
		"incA4/concat":    tensor.NewCHW(384, 35, 35),
		"redA/concat":     tensor.NewCHW(1024, 17, 17),
		"incB7/concat":    tensor.NewCHW(1024, 17, 17),
		"redB/concat":     tensor.NewCHW(1536, 8, 8),
		"incC3/concat":    tensor.NewCHW(1536, 8, 8),
	} {
		n, ok := g.NodeByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if !n.OutShape.Equal(want) {
			t.Errorf("%s shape = %v, want %v", name, n.OutShape, want)
		}
	}
	// Rectangular convs must preserve spatial dims: 1x7 conv inside
	// Inception-B keeps 17x17.
	n, _ := g.NodeByName("incB1/b3_1x7")
	if n.OutShape.H() != 17 || n.OutShape.W() != 17 {
		t.Errorf("1x7 conv shape = %v, want 17x17 spatial", n.OutShape)
	}
}

// Property-style check across the whole zoo: every model's tensors and
// costs must be positive and finite, and all intermediate activations
// bounded by a sane ceiling.
func TestZooSanity(t *testing.T) {
	for _, name := range Names() {
		g := build(t, name)
		if g.TotalFLOPs() <= 0 {
			t.Errorf("%s: non-positive FLOPs", name)
		}
		for _, id := range g.Topo() {
			n := g.Node(id)
			if n.OutShape.Elems() <= 0 {
				t.Errorf("%s/%s: empty output shape", name, n.Layer.Name())
			}
			if n.OutShape.Bytes(tensor.Float32) > 64<<20 {
				t.Errorf("%s/%s: implausibly large activation %v", name, n.Layer.Name(), n.OutShape)
			}
			if n.FLOPs < 0 {
				t.Errorf("%s/%s: negative FLOPs", name, n.Layer.Name())
			}
		}
	}
}

// MobileNet bottleneck modules must not shrink tensors internally
// (paper §6.1: outputs within a bottleneck module are non-decreasing,
// which is why it clusters into a virtual block).
func TestMobileNetBottleneckIsVirtualBlock(t *testing.T) {
	g := build(t, "mobilenetv2")
	in, _ := g.NodeByName("bneck2/expand") // entry conv of the module
	inputBytes := g.Node(g.Preds(in.ID)[0]).OutShape.Bytes(tensor.Float32)
	for _, suffix := range []string{"expand", "dwise", "project"} {
		n, ok := g.NodeByName("bneck2/" + suffix)
		if !ok {
			t.Fatalf("bneck2/%s missing", suffix)
		}
		if n.OutShape.Bytes(tensor.Float32) < inputBytes {
			// project returns to 24 channels = the module input size;
			// expand/dwise are 6x larger. Nothing inside is smaller.
			t.Errorf("bneck2/%s output %d < module input %d", suffix,
				n.OutShape.Bytes(tensor.Float32), inputBytes)
		}
	}
}
