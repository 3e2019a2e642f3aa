package dnnjps

// The benchmark harness: one testing.B benchmark per table/figure of
// the paper's evaluation (run `go test -bench=. -benchmem`), plus
// ablation and microbenchmarks for the planner's building blocks.
// Each figure benchmark regenerates the experiment's data end to end;
// EXPERIMENTS.md records the resulting numbers next to the paper's.

import (
	"math/rand"
	"testing"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/experiments"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/nn"
	"dnnjps/internal/profile"
	"dnnjps/internal/sim"
	"dnnjps/internal/tensor"
)

func benchEnv() experiments.Env { return experiments.DefaultEnv() }

// --- Per-figure benchmarks -------------------------------------------------

func BenchmarkFig04_AlexNetProfile(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4(env, "alexnet", netsim.WiFi)
		if len(rows) != 8 {
			b.Fatal("wrong block count")
		}
	}
}

func BenchmarkFig11_JPSvsBF(b *testing.B) {
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(env, netsim.FourG)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig12_Latency(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig12(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 12 {
			b.Fatal("wrong cell count")
		}
	}
}

func BenchmarkFig12d_Overhead(b *testing.B) {
	// The quantity Fig. 12(d) reports: one full JPS planning pass over
	// a prebuilt lookup curve for n = 100 jobs.
	g := models.MustBuild("alexnet")
	curve := profile.BuildCurve(g, profile.RaspberryPi4(), profile.CloudGPU(), netsim.FourG, tensor.Float32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.JPS(curve, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Reduction(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig12(env)
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.Table1(cells)
		if len(rows) != 12 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig13_BandwidthSweep(b *testing.B) {
	env := benchEnv()
	env.NJobs = 50
	bands := []float64{1, 3, 5.85, 10, 18.88, 30, 50, 80}
	for i := 0; i < b.N; i++ {
		for _, m := range []string{"alexnet", "mobilenetv2"} {
			if _, err := experiments.Fig13(env, m, bands); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig14_RatioSweep(b *testing.B) {
	env := benchEnv()
	bands := []float64{9, 10, 11}
	ratios := []float64{0.25, 0.5, 1, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		for _, m := range []string{"resnet18", "googlenet"} {
			if _, err := experiments.Fig14(env, m, ratios, bands); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablation benchmarks ---------------------------------------------------

func BenchmarkAblation_Scheduling(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationScheduling(env, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_MixStrategies(b *testing.B) {
	env := benchEnv()
	env.NJobs = 40
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMixStrategies(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_VirtualBlocks(b *testing.B) {
	env := benchEnv()
	env.NJobs = 30
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationVirtualBlocks(env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks ----------------------------------------------------

func BenchmarkExt_HeteroWorkload(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeteroWorkload(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_Streaming(b *testing.B) {
	env := benchEnv()
	fps := []float64{0.5, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Stream(env, "alexnet", netsim.FourG, fps, 120); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_ThreeTier(b *testing.B) {
	env := benchEnv()
	env.NJobs = 50
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ThreeTier(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_DTypes(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDTypes(env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks -------------------------------------------------------

func BenchmarkJohnson_10kJobs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	jobs := make([]flowshop.Job, 10_000)
	for i := range jobs {
		jobs[i] = flowshop.Job{ID: i, A: rng.Float64() * 100, B: rng.Float64() * 100}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := flowshop.Johnson(jobs)
		_ = flowshop.Makespan(seq)
	}
}

func BenchmarkBinarySearchCut(b *testing.B) {
	g := models.MustBuild("alexnet")
	curve := profile.BuildCurve(g, profile.RaspberryPi4(), profile.CloudGPU(), netsim.FourG, tensor.Float32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SearchCurve(curve); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildCurve_AlexNet(b *testing.B) {
	g := models.MustBuild("alexnet")
	pi, gpu := profile.RaspberryPi4(), profile.CloudGPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.BuildCurve(g, pi, gpu, netsim.WiFi, tensor.Float32)
	}
}

func BenchmarkBuildCurve_GoogLeNet(b *testing.B) {
	g := models.MustBuild("googlenet")
	pi, gpu := profile.RaspberryPi4(), profile.CloudGPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.BuildCurve(g, pi, gpu, netsim.WiFi, tensor.Float32)
	}
}

func BenchmarkPlanGeneral_GoogLeNet(b *testing.B) {
	g := models.MustBuild("googlenet")
	pi, gpu := profile.RaspberryPi4(), profile.CloudGPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanGeneral(g, pi, gpu, netsim.FourG, tensor.Float32, 20, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator_1kJobs(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	jobs := make([]sim.JobSpec, 1000)
	for i := range jobs {
		jobs[i] = sim.JobSpec{
			ID: i, Priority: i,
			Stages: []sim.StageSpec{
				{Resource: sim.ResMobile, Ms: rng.Float64() * 10},
				{Resource: sim.ResUplink, Ms: rng.Float64() * 10},
				{Resource: sim.ResCloud, Ms: rng.Float64()},
			},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineForward_TinyCNN(b *testing.B) {
	// AlexNet is too slow for a tight loop; bench a compact CNN (same
	// architecture the AR-glasses example runs).
	m := LoadModel(benchNet(), 1)
	in := tensor.New(tensor.NewCHW(3, 64, 64))
	for i := range in.Data {
		in.Data[i] = float32(i%7) / 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(in.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineForward_TinyCNN_Parallel(b *testing.B) {
	m := LoadModel(benchNet(), 1).Parallel(0)
	in := tensor.New(tensor.NewCHW(3, 64, 64))
	for i := range in.Data {
		in.Data[i] = float32(i%7) / 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(in.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNet is the compact CNN used by engine-level benchmarks.
func benchNet() *Graph {
	g := dag.New("benchnet")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(3, 64, 64)})
	c1 := g.Add(&nn.Conv2D{LayerName: "conv1", OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, in)
	r1 := g.Add(nn.NewActivation("relu1", nn.ReLU), c1)
	p1 := g.Add(nn.NewMaxPool2D("pool1", 2, 2, 0), r1)
	c2 := g.Add(&nn.Conv2D{LayerName: "conv2", OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1, Bias: true}, p1)
	r2 := g.Add(nn.NewActivation("relu2", nn.ReLU), c2)
	gp := g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, r2)
	fc := g.Add(&nn.Dense{LayerName: "fc", Out: 10, Bias: true}, gp)
	g.Add(nn.NewSoftmax("softmax"), fc)
	return g.MustFinalize()
}
