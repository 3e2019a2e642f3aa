// Package experiments reproduces every table and figure of the
// paper's evaluation (Section 6): per-layer profiles (Fig. 4), the
// brute-force comparison (Fig. 11), the four-model × three-bandwidth
// latency grid (Fig. 12, Table 1), the planning-overhead measurement
// (Fig. 12d), the bandwidth sweep / benefit range (Fig. 13), and the
// job-mix ratio sweep (Fig. 14), plus the ablations DESIGN.md calls
// out. Each driver returns structured rows and can render a
// report.Table; cmd/jpsbench drives them all and regenerates
// EXPERIMENTS.md's measured columns.
package experiments

import (
	"fmt"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// Env fixes the device pair, datatype and job count shared by all
// experiments.
type Env struct {
	Mobile profile.Device
	Cloud  profile.Device
	DType  tensor.DType
	// NJobs is the job count of the Fig. 12 / Table 1 / Fig. 13 /
	// Fig. 14 experiments (the paper uses 100).
	NJobs int
}

// DefaultEnv mirrors the paper's testbed: Raspberry Pi 4 client,
// GPU-class server, float32 tensors, 100 jobs.
func DefaultEnv() Env {
	return Env{
		Mobile: profile.RaspberryPi4(),
		Cloud:  profile.CloudGPU(),
		DType:  tensor.Float32,
		NJobs:  100,
	}
}

// curveFor profiles a model on a channel.
func (e Env) curveFor(g *dag.Graph, ch netsim.Channel) *profile.Curve {
	return profile.BuildCurve(g, e.Mobile, e.Cloud, ch, e.DType)
}

// jpsAvgMs plans a model with the method the paper uses for it — the
// line-view JPS for (virtually) line-structured models, the general
// planner for GoogLeNet — and returns the average completion time.
func (e Env) jpsAvgMs(g *dag.Graph, ch netsim.Channel, n int) (float64, error) {
	if g.IsLine() || g.Name() != "googlenet" {
		p, err := core.JPS(e.curveFor(g, ch), n)
		if err != nil {
			return 0, err
		}
		return p.AvgMs(), nil
	}
	p, err := core.PlanGeneralBest(g, e.Mobile, e.Cloud, ch, e.DType, n, 0)
	if err != nil {
		return 0, err
	}
	return p.AvgMs(), nil
}

// schemes runs the paper's four schemes on one model and channel —
// cloud-only, local-only, partition-only and JPS (as jpsAvgMs plans it)
// — and returns each one's average completion time for n jobs.
func (e Env) schemes(g *dag.Graph, ch netsim.Channel, n int) (co, lo, po, jps float64, err error) {
	curve := e.curveFor(g, ch)
	var avg [3]float64
	for i, baseline := range []func(*profile.Curve, int) (*core.Plan, error){core.CO, core.LO, core.PO} {
		p, err := baseline(curve, n)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		avg[i] = p.AvgMs()
	}
	jps, err = e.jpsAvgMs(g, ch, n)
	return avg[0], avg[1], avg[2], jps, err
}

// mustModel builds a zoo model or panics (experiment drivers use
// hard-coded names).
func mustModel(name string) *dag.Graph { return models.MustBuild(name) }

// displayName maps zoo names to the paper's labels.
func displayName(model string) string {
	switch model {
	case "alexnet":
		return "AlexNet"
	case "googlenet":
		return "GoogLeNet"
	case "mobilenetv2":
		return "MobileNet-v2"
	case "resnet18":
		return "ResNet18"
	case "vgg16":
		return "VGG16"
	case "nin":
		return "NiN"
	case "tinyyolov2":
		return "Tiny-YOLOv2"
	default:
		return model
	}
}

func pct(base, v float64) float64 {
	if base <= 0 {
		return 0
	}
	r := (base - v) / base * 100
	if r < 0 {
		return 0 // the paper reports 0 when a scheme does not help
	}
	return r
}

func fmtMs(v float64) string { return fmt.Sprintf("%.1f", v) }
