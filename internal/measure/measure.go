// Package measure closes the profiling loop: instead of assuming a
// parametric device model, it times real engine executions of a probe
// model layer by layer and fits per-kind effective throughput — the
// same procedure the paper uses to pre-build its computation-time
// lookup table with the PyTorch profiler. The calibrated Device plugs
// straight into profile.BuildCurve, so plans can be made for the
// machine the code is actually running on.
package measure

import (
	"fmt"
	"time"

	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/nn"
	"dnnjps/internal/profile"
	"dnnjps/internal/regression"
	"dnnjps/internal/tensor"
)

// Sample is one timed layer execution.
type Sample struct {
	Layer string // layer name, for per-layer reporting
	Kind  nn.Kind
	FLOPs float64
	Ms    float64
}

// ProfileLayers executes the model reps times, timing every layer, and
// returns the per-layer samples (reps samples per layer, best-of kept
// to suppress scheduling noise).
func ProfileLayers(m *engine.Model, input *tensor.Tensor, reps int) ([]Sample, error) {
	if reps <= 0 {
		reps = 3
	}
	g := m.Graph()
	best := make(map[int]float64, g.Len())
	for r := 0; r < reps; r++ {
		acts := map[int]*tensor.Tensor{}
		for _, id := range g.Topo() {
			start := time.Now()
			if err := m.Execute(acts, input, []int{id}); err != nil {
				return nil, err
			}
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			if prev, ok := best[id]; !ok || ms < prev {
				best[id] = ms
			}
		}
	}
	samples := make([]Sample, 0, g.Len())
	for _, id := range g.Topo() {
		n := g.Node(id)
		if n.FLOPs == 0 {
			continue // free layers carry no signal
		}
		samples = append(samples, Sample{
			Layer: n.Layer.Name(),
			Kind:  n.Layer.Kind(),
			FLOPs: n.FLOPs,
			Ms:    best[id],
		})
	}
	return samples, nil
}

// FitDevice turns layer samples into a profile.Device: per kind, a
// least-squares fit of time vs FLOPs gives the effective throughput
// (slope) and dispatch overhead (intercept); kinds with too few or
// degenerate samples fall back to the aggregate FLOPs/ms ratio.
func FitDevice(name string, samples []Sample) (profile.Device, error) {
	if len(samples) == 0 {
		return profile.Device{}, fmt.Errorf("measure: no samples")
	}
	byKind := map[nn.Kind][]Sample{}
	var totalFlops, totalMs float64
	for _, s := range samples {
		byKind[s.Kind] = append(byKind[s.Kind], s)
		totalFlops += s.FLOPs
		totalMs += s.Ms
	}
	if totalMs <= 0 {
		return profile.Device{}, fmt.Errorf("measure: zero total time")
	}
	dev := profile.Device{
		Name:             name,
		ThroughputFperMs: make(map[nn.Kind]float64),
		DefaultFperMs:    totalFlops / totalMs,
	}
	var overheadSum float64
	var overheadN int
	for kind, ss := range byKind {
		var xs, ys []float64
		var fSum, mSum float64
		for _, s := range ss {
			xs = append(xs, s.FLOPs)
			ys = append(ys, s.Ms)
			fSum += s.FLOPs
			mSum += s.Ms
		}
		if fit, err := regression.FitLinear(xs, ys); err == nil && fit.W1 > 0 {
			dev.ThroughputFperMs[kind] = 1 / fit.W1
			if fit.W0 > 0 {
				overheadSum += fit.W0
				overheadN++
			}
			continue
		}
		if mSum > 0 {
			dev.ThroughputFperMs[kind] = fSum / mSum
		}
	}
	if overheadN > 0 {
		dev.LayerOverheadMs = overheadSum / float64(overheadN)
	}
	return dev, nil
}

// CalibrateDevice profiles the probe graph on this machine — reps timed
// repetitions per layer (default 3) on the engine as it serves, with
// workers goroutines per layer (<= 0 means GOMAXPROCS) — and fits a
// device model. It also returns the raw per-layer samples so callers
// can report per-layer timings (jpsprofile's ns/layer table).
func CalibrateDevice(name string, g *dag.Graph, seed int64, reps, workers int) (profile.Device, []Sample, error) {
	m := engine.Load(g, seed).Parallel(workers)
	input := tensor.New(g.Node(g.Source()).OutShape)
	for i := range input.Data {
		input.Data[i] = float32(i%97)/97 - 0.5
	}
	samples, err := ProfileLayers(m, input, reps)
	if err != nil {
		return profile.Device{}, nil, err
	}
	dev, err := FitDevice(name, samples)
	if err != nil {
		return profile.Device{}, nil, err
	}
	return dev, samples, nil
}
