package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dnnjps/internal/profile"
)

func TestRunProfileWithArtifacts(t *testing.T) {
	dir := t.TempDir()
	lookup := filepath.Join(dir, "lookup.json")
	dot := filepath.Join(dir, "model.dot")
	if err := run("alexnet", 18.88, lookup, dot, false); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(lookup)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tab, err := profile.LoadLookupTable(f)
	if err != nil {
		t.Fatalf("lookup table invalid: %v", err)
	}
	if len(tab.Keys()) != 3 {
		t.Errorf("lookup keys = %v, want one per preset channel", tab.Keys())
	}

	dotData, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dotData), "digraph") {
		t.Error("DOT file missing digraph header")
	}
}

func TestRunProfileNoArtifacts(t *testing.T) {
	if err := run("mobilenetv2", 5.85, "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunProfileQuant(t *testing.T) {
	if err := run("mobilenetv2", 5.85, "", "", true); err != nil {
		t.Fatal(err)
	}
}

// -calibrate times real forward passes of squeezenet (≈ 0.5 s) on the
// engine's own kernels and prints the fitted device, a row per layer
// and the plan it prices.
func TestCalibrate(t *testing.T) {
	var out strings.Builder
	if err := calibrate(&out, "squeezenet", 18.88, 1); err != nil {
		t.Fatal(err)
	}
	for _, re := range []string{
		`(?m)^fitted device "local": default [0-9.]+ MFLOPs/ms, per-layer overhead [0-9.]+ ms$`,
		`(?m)^fire2/expand3 +conv +55\.76 +[0-9.]+$`,
		`(?m)^JPS plan for 8 jobs at .* with the calibrated device: makespan [0-9.]+ ms \(local-only [0-9.]+ ms\)$`,
	} {
		if !regexp.MustCompile(re).MatchString(out.String()) {
			t.Errorf("output has no line matching %s:\n%s", re, out.String())
		}
	}
}

func TestRunProfileUnknownModel(t *testing.T) {
	if err := run("lenet", 5.85, "", "", false); err == nil {
		t.Error("unknown model must error")
	}
}

// A -mbps that is not a finite bandwidth above 0 is one error from
// either mode, before any forward pass — not a panic in netsim.At.
func TestBadMbps(t *testing.T) {
	for _, mbps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := run("alexnet", mbps, "", "", false); err == nil {
			t.Errorf("run -mbps %g: want an error", mbps)
		}
		var out strings.Builder
		if err := calibrate(&out, "alexnet", mbps, 1); err == nil {
			t.Errorf("calibrate -mbps %g: want an error", mbps)
		}
		if out.Len() != 0 {
			t.Errorf("calibrate -mbps %g wrote %q before failing", mbps, out.String())
		}
	}
}
