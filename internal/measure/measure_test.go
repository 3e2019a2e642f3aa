package measure

import (
	"testing"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/netsim"
	"dnnjps/internal/nn"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// probe is a small CNN with several conv sizes so the per-kind fit has
// FLOPs variance to regress on.
func probe(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New("probe")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(3, 48, 48)})
	c1 := g.Add(&nn.Conv2D{LayerName: "conv1", OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, in)
	r1 := g.Add(nn.NewActivation("relu1", nn.ReLU), c1)
	p1 := g.Add(nn.NewMaxPool2D("pool1", 2, 2, 0), r1)
	c2 := g.Add(&nn.Conv2D{LayerName: "conv2", OutC: 24, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, p1)
	r2 := g.Add(nn.NewActivation("relu2", nn.ReLU), c2)
	p2 := g.Add(nn.NewMaxPool2D("pool2", 2, 2, 0), r2)
	c3 := g.Add(&nn.Conv2D{LayerName: "conv3", OutC: 48, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, p2)
	gp := g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, c3)
	fc := g.Add(&nn.Dense{LayerName: "fc", Out: 10, Bias: true}, gp)
	g.Add(nn.NewSoftmax("softmax"), fc)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCalibrateDevice(t *testing.T) {
	g := probe(t)
	dev, _, err := CalibrateDevice("thismachine", g, 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dev.DefaultFperMs <= 0 {
		t.Fatal("non-positive default throughput")
	}
	// Conv throughput must be fitted and positive.
	conv, ok := dev.ThroughputFperMs[nn.KindConv]
	if !ok || conv <= 0 {
		t.Fatalf("conv throughput = %v (ok=%v)", conv, ok)
	}
	// The calibrated device must plug into the normal pipeline.
	curve := profile.BuildCurve(g, dev, profile.CloudGPU(), netsim.WiFi, tensor.Float32)
	if err := curve.Validate(); err != nil {
		t.Fatalf("curve from calibrated device invalid: %v", err)
	}
	if _, err := core.JPS(curve, 4); err != nil {
		t.Fatalf("planning with calibrated device: %v", err)
	}
}

func TestCalibrationPredictsWithinNoise(t *testing.T) {
	// Predicting the probe's own total time with the device fitted on
	// it must land within a loose noise band (timing jitter on shared
	// CI machines is large; we assert order of magnitude).
	g := probe(t)
	dev, _, err := CalibrateDevice("self", g, 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := engine.Load(g, 1)
	input := tensor.New(g.Node(g.Source()).OutShape)
	for i := range input.Data {
		input.Data[i] = float32(i%97)/97 - 0.5
	}
	samples, err := ProfileLayers(m, input, 3)
	if err != nil {
		t.Fatal(err)
	}
	var measured float64
	for _, s := range samples {
		measured += s.Ms
	}
	predicted := dev.TotalTimeMs(g)
	if predicted <= 0 {
		t.Fatal("non-positive prediction")
	}
	ratio := predicted / measured
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("prediction %.3fms vs measured %.3fms (ratio %.2f) out of band",
			predicted, measured, ratio)
	}
}

func TestFitDeviceErrors(t *testing.T) {
	if _, err := FitDevice("x", nil); err == nil {
		t.Error("no samples must error")
	}
	if _, err := FitDevice("x", []Sample{{Kind: nn.KindConv, FLOPs: 1, Ms: 0}}); err == nil {
		t.Error("zero total time must error")
	}
}

func TestFitDeviceFallbackRatio(t *testing.T) {
	// A kind with a single sample cannot be regressed; the aggregate
	// ratio fallback must kick in.
	dev, err := FitDevice("x", []Sample{{Kind: nn.KindDense, FLOPs: 1000, Ms: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.ThroughputFperMs[nn.KindDense]; got != 500 {
		t.Errorf("fallback throughput = %g, want 500", got)
	}
}
