// Command jpsprofile dumps Fig. 4-style per-block profiles for a model
// and can persist the curves for all preset channels as a JSON lookup
// table (the artifact the paper's scheduler loads at startup). With
// -calibrate it times real engine forward passes on this machine
// instead — on the kernels the engine picks for itself, the ones a
// server runs — printing ns/layer and a fitted device model.
//
// Usage:
//
//	jpsprofile -model alexnet
//	jpsprofile -model alexnet -quant
//	jpsprofile -model mobilenetv2 -o lookup.json
//	jpsprofile -model alexnet -calibrate -workers 0
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"dnnjps/internal/core"
	"dnnjps/internal/measure"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/report"
	"dnnjps/internal/tensor"
)

func main() {
	var (
		model   = flag.String("model", "alexnet", "model name: "+fmt.Sprint(models.Names()))
		mbps    = flag.Float64("mbps", 18.88, "bandwidth for the block profile")
		out     = flag.String("o", "", "write a JSON lookup table (all preset channels) to this file")
		dot     = flag.String("dot", "", "write the model's Graphviz DOT to this file")
		quant   = flag.Bool("quant", false, "price the int8 deployment: quantized mobile device + 1-byte cut tensors")
		cal     = flag.Bool("calibrate", false, "calibrate a device model by timing real engine runs on this machine")
		workers = flag.Int("workers", 1, "engine worker goroutines for -calibrate; 0 = GOMAXPROCS")
	)
	flag.Parse()
	if *cal {
		if err := calibrate(os.Stdout, *model, *mbps, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "jpsprofile:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*model, *mbps, *out, *dot, *quant); err != nil {
		fmt.Fprintln(os.Stderr, "jpsprofile:", err)
		os.Exit(1)
	}
}

// calibrate times real engine runs of the model on this machine, fits
// a device model, and shows the resulting plan for a small batch.
func calibrate(w io.Writer, model string, mbps float64, workers int) error {
	if !(mbps > 0) || math.IsInf(mbps, 1) {
		return fmt.Errorf("-mbps %g: want a finite bandwidth above 0", mbps)
	}
	g, err := models.Build(model)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "calibrating local device on %s (this runs real forward passes)...\n", model)
	dev, samples, err := measure.CalibrateDevice("local", g, 42, 3, workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fitted device %q: default %.2f MFLOPs/ms, per-layer overhead %.3f ms\n",
		dev.Name, dev.DefaultFperMs/1e6, dev.LayerOverheadMs)

	lt := report.NewTable("Per-layer timings (best of 3)", "Layer", "Kind", "MFLOPs", "ns/layer")
	for _, s := range samples {
		lt.AddRow(s.Layer, s.Kind.String(), s.FLOPs/1e6, s.Ms*1e6)
	}
	if err := lt.Render(w); err != nil {
		return err
	}

	t := report.NewTable("Fitted per-kind throughput", "Kind", "MFLOPs/ms")
	for kind, tput := range dev.ThroughputFperMs {
		t.AddRow(kind.String(), tput/1e6)
	}
	if err := t.Render(w); err != nil {
		return err
	}

	ch := netsim.At(mbps)
	curve := profile.BuildCurve(g, dev, profile.CloudGPU(), ch, tensor.Float32)
	plan, err := core.JPS(curve, 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nJPS plan for 8 jobs at %s with the calibrated device: makespan %.1f ms (local-only %.1f ms)\n",
		ch, plan.Makespan, 8*curve.TotalMobileMs())
	return nil
}

func run(model string, mbps float64, out, dot string, quant bool) error {
	if !(mbps > 0) || math.IsInf(mbps, 1) {
		return fmt.Errorf("-mbps %g: want a finite bandwidth above 0", mbps)
	}
	g, err := models.Build(model)
	if err != nil {
		return err
	}
	pi, gpu := profile.RaspberryPi4(), profile.CloudGPU()
	dt := tensor.Float32
	if quant {
		// The int8 deployment: quantized mobile compute and 1-byte cut
		// tensors. The cloud side stays fp32 (it dequantizes at decode).
		pi, dt = pi.Quantized(), tensor.Int8
	}
	ch := netsim.At(mbps)

	fmt.Printf("%s: %d layers, %.2f GFLOPs, %.1fM params\n",
		model, g.Len(), g.TotalFLOPs()/1e9, float64(g.TotalParams())/1e6)
	fmt.Printf("local-only: %.1f ms on %s, %.2f ms on %s\n\n",
		pi.TotalTimeMs(g), pi.Name, gpu.TotalTimeMs(g), gpu.Name)

	stats := profile.BlockProfile(g, pi, gpu, ch, dt)
	t := report.NewTable(fmt.Sprintf("Per-block profile of %s at %s", model, ch),
		"Block", "Mobile ms", "Cloud ms", "Comm ms", "Cut bytes")
	for _, s := range stats {
		t.AddRow(s.Label, s.MobileMs, s.CloudMs, s.CommMs, s.Bytes)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	if dot != "" {
		f, err := os.Create(dot)
		if err != nil {
			return err
		}
		if err := g.WriteDOT(f, dt); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote DOT graph to %s\n", dot)
	}

	if out == "" {
		return nil
	}
	tab := profile.NewLookupTable()
	for _, preset := range netsim.Presets() {
		tab.Put(profile.BuildCurve(g, pi, gpu, preset, dt))
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	err = tab.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("\nwrote lookup table with %d entries to %s\n", len(tab.Keys()), out)
	return nil
}
