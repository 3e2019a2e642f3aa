// Package dnnjps is a from-scratch reproduction of "Joint Optimization
// of DNN Partition and Scheduling for Mobile Cloud Computing" (Duan &
// Wu, ICPP 2021). It jointly decides where to cut DNN inference jobs
// between a mobile device and a cloud server and in which order to run
// their compute/upload stages, minimizing the makespan of n identical
// jobs.
//
// This root package is the public facade: it re-exports the types and
// entry points downstream users need, backed by the focused internal
// packages (graph substrate, model zoo, profiler, flow-shop theory,
// planner, simulator, inference engine, offloading runtime).
//
// Quick start:
//
//	g, _ := dnnjps.BuildModel("alexnet")
//	curve := dnnjps.BuildCurve(g, dnnjps.RaspberryPi4(), dnnjps.CloudGPU(), dnnjps.FourG, dnnjps.Float32)
//	plan, _ := dnnjps.JPS(curve, 8)
//	fmt.Println(plan.Makespan, plan.Sequence)
//
// See examples/ for runnable scenarios and cmd/ for the CLI tools.
package dnnjps

import (
	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/measure"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/runtime"
	"dnnjps/internal/sim"
	"dnnjps/internal/tensor"
)

// Core data types.
type (
	// Graph is a DNN computation DAG (one node per layer).
	Graph = dag.Graph
	// Curve holds the per-cut latency functions f(l), g(l) of a model
	// on a device pair and channel.
	Curve = profile.Curve
	// Plan is a joint partition+schedule decision for n identical jobs.
	Plan = core.Plan
	// GeneralPlan is the Algorithm 3 result for general-structure DNNs.
	GeneralPlan = core.GeneralPlan
	// Device is a per-layer-kind latency cost model.
	Device = profile.Device
	// Channel models an uplink (bandwidth + setup latency).
	Channel = netsim.Channel
	// Job is one partitioned job's (compute, upload) stage pair.
	Job = flowshop.Job
	// Tensor is a dense float32 tensor.
	Tensor = tensor.Tensor
	// Shape is a tensor shape.
	Shape = tensor.Shape
	// DType selects the activation element type (communication volume).
	DType = tensor.DType
	// Model is an executable network (graph + weights).
	Model = engine.Model
	// CutSearch is the Algorithm 2 binary-search result.
	CutSearch = core.CutSearch
)

// Element types.
const (
	Float32 = tensor.Float32
	Float16 = tensor.Float16
	Int8    = tensor.Int8
)

// The paper's reference channels (3G 1.1 Mb/s, 4G 5.85 Mb/s, Wi-Fi
// 18.88 Mb/s).
var (
	ThreeG = netsim.ThreeG
	FourG  = netsim.FourG
	WiFi   = netsim.WiFi
)

// ChannelAt builds a synthetic channel at the given uplink bandwidth.
func ChannelAt(mbps float64) Channel { return netsim.At(mbps) }

// BuildModel constructs a zoo model by name (alexnet, vgg16, nin,
// tinyyolov2, mobilenetv2, resnet18, googlenet).
func BuildModel(name string) (*Graph, error) { return models.Build(name) }

// ModelNames lists the available zoo models.
func ModelNames() []string { return models.Names() }

// RaspberryPi4 is the calibrated mobile-device cost model.
func RaspberryPi4() Device { return profile.RaspberryPi4() }

// CloudGPU is the calibrated cloud-server cost model.
func CloudGPU() Device { return profile.CloudGPU() }

// BuildCurve profiles a model into its cut curve.
func BuildCurve(g *Graph, mobile, cloud Device, ch Channel, dt DType) *Curve {
	return profile.BuildCurve(g, mobile, cloud, ch, dt)
}

// JPS plans n identical jobs jointly (Algorithm 2 + Theorem 5.3 mix +
// Johnson's rule) — the paper's contribution.
func JPS(c *Curve, n int) (*Plan, error) { return core.JPS(c, n) }

// JPSPlus is the globalized two-type planner (every Pareto cut pair).
func JPSPlus(c *Curve, n int) (*Plan, error) { return core.JPSPlus(c, n) }

// PO is the partition-only baseline (DADS-style homogeneous cut).
func PO(c *Curve, n int) (*Plan, error) { return core.PO(c, n) }

// CO is the cloud-only baseline.
func CO(c *Curve, n int) (*Plan, error) { return core.CO(c, n) }

// LO is the local-only baseline.
func LO(c *Curve, n int) (*Plan, error) { return core.LO(c, n) }

// BruteForce finds the exact optimum by multiset enumeration (small n).
func BruteForce(c *Curve, n, maxCombos int) (*Plan, error) {
	return core.BruteForce(c, n, maxCombos)
}

// PlanGeneral runs Algorithm 3 on a general-structure DNN.
func PlanGeneral(g *Graph, mobile, cloud Device, ch Channel, dt DType, n int) (*GeneralPlan, error) {
	return core.PlanGeneral(g, mobile, cloud, ch, dt, n, 0)
}

// PlanGeneralBest runs Algorithm 3 and falls back to the line-view /
// trivial plans when they estimate faster (see core.PlanGeneralBest).
func PlanGeneralBest(g *Graph, mobile, cloud Device, ch Channel, dt DType, n int) (*GeneralPlan, error) {
	return core.PlanGeneralBest(g, mobile, cloud, ch, dt, n, 0)
}

// JobClass is one homogeneous slice of a heterogeneous workload.
type JobClass = core.JobClass

// HeteroPlan is a joint decision for a heterogeneous workload.
type HeteroPlan = core.HeteroPlan

// JPSHetero jointly plans a mixed workload of several DNN classes —
// the paper's future-work extension.
func JPSHetero(classes []JobClass) (*HeteroPlan, error) { return core.JPSHetero(classes) }

// StreamPlan assigns cuts to a stream of frame releases.
type StreamPlan = core.StreamPlan

// PlanStream plans one frame per release time using the JPS mix
// online (streaming extension).
func PlanStream(c *Curve, releases []float64) (*StreamPlan, error) {
	return core.PlanStream(c, releases)
}

// PeriodicReleases builds n release times at a fixed interval.
func PeriodicReleases(n int, intervalMs float64) []float64 {
	return core.PeriodicReleases(n, intervalMs)
}

// Chain is an ordered offloading topology: Devices[0] holds the jobs,
// Links[l] connects Devices[l] to Devices[l+1]. Three devices give the
// mobile→edge→cloud (three-tier) extension.
type Chain = core.Chain

// ChainPlan is a k-cut partition plus m-machine schedule, one cut per
// link.
type ChainPlan = core.ChainPlan

// JPSChain jointly picks one cut per link for every job and an
// m-machine flow-shop schedule; on a 2-device chain it is exactly JPS.
func JPSChain(g *Graph, ch Chain, n int) (*ChainPlan, error) {
	return core.JPSChain(g, ch, n)
}

// Simulate validates a plan on the three-stage discrete-event
// simulator and returns the simulated makespan.
func Simulate(p *Plan) (float64, error) {
	res, err := sim.Run(sim.FromPlan(p))
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// CalibrateLocalDevice times real engine executions of the probe graph
// on this machine and fits a Device usable with BuildCurve — the
// paper's lookup-table construction, self-hosted.
func CalibrateLocalDevice(name string, probe *Graph, seed int64, reps int) (Device, error) {
	dev, _, err := measure.CalibrateDevice(name, probe, seed, reps, 1)
	return dev, err
}

// LoadModel instantiates deterministic weights for a graph so a client
// and server can execute it (same seed → identical weights).
func LoadModel(g *Graph, seed int64) *Model { return engine.Load(g, seed) }

// NewServer creates the cloud-side runtime for a loaded model.
func NewServer(m *Model) *runtime.Server { return runtime.NewServer(m) }

// NewClient creates the mobile-side runtime over a connection to a
// server running the same model and seed. One client executes every
// partition: RunPlan a line-view Plan, RunGeneralPlan an Algorithm 3
// GeneralPlan (cut-node sets on general-structure DNNs, several
// boundary tensors per job), both pipelined over the same connection.
var NewClient = runtime.NewClient
