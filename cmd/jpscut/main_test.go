package main

import (
	"math"
	"testing"
)

func TestRunAllModels(t *testing.T) {
	for _, model := range []string{"alexnet", "mobilenetv2", "resnet18", "googlenet"} {
		if err := run(model, 5.85, 4, 80); err != nil {
			t.Errorf("run(%s): %v", model, err)
		}
	}
}

func TestRunUnknownModel(t *testing.T) {
	if err := run("lenet", 5.85, 4, 80); err == nil {
		t.Error("unknown model must error")
	}
}

func TestRunExtremeBandwidths(t *testing.T) {
	if err := run("alexnet", 0.5, 2, 80); err != nil {
		t.Errorf("low bandwidth: %v", err)
	}
	if err := run("alexnet", 200, 2, 80); err != nil {
		t.Errorf("high bandwidth: %v", err)
	}
	// Not a bandwidth: an error before any planning, not a panic in
	// netsim.At or a plan of NaNs.
	for _, mbps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := run("alexnet", mbps, 2, 80); err == nil {
			t.Errorf("-mbps %g: want an error", mbps)
		}
	}
}
