package core

import (
	"math"
	"slices"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/nn"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

func devices() (profile.Device, profile.Device) {
	return profile.RaspberryPi4(), profile.CloudGPU()
}

// smallGeneral builds a 2-branch diamond whose branches have different
// weights, exercising per-path cuts.
func smallGeneral(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New("diamond")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(3, 64, 64)})
	a1 := g.Add(&nn.Conv2D{LayerName: "a1", OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, in)
	a2 := g.Add(nn.NewMaxPool2D("a2", 2, 2, 0), a1)
	b1 := g.Add(&nn.Conv2D{LayerName: "b1", OutC: 16, KH: 5, KW: 5, Stride: 2, Pad: 2}, in)
	j := g.Add(&nn.Add{LayerName: "join"}, a2, b1)
	g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, j)
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

func TestConvertToPathsSmall(t *testing.T) {
	g := smallGeneral(t)
	paths, err := convertToPaths(g, 0)
	if err != nil {
		t.Fatalf("convertToPaths: %v", err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	assertPathsCoverGraph(t, g, paths)
}

func TestConvertToPathsHierarchical(t *testing.T) {
	g := models.MustBuild("googlenet") // 4^9 full paths: must go hierarchical
	paths, err := convertToPaths(g, 64)
	if err != nil {
		t.Fatalf("convertToPaths: %v", err)
	}
	if len(paths) != 4 {
		t.Fatalf("hierarchical conversion of GoogLeNet: %d paths, want 4 (max branch width)", len(paths))
	}
	assertPathsCoverGraph(t, g, paths)
	// Paths must be internally topo-ordered.
	pos := make(map[int]int)
	for i, id := range g.Topo() {
		pos[id] = i
	}
	for pi, p := range paths {
		for i := 1; i < len(p); i++ {
			if pos[p[i]] <= pos[p[i-1]] {
				t.Fatalf("path %d not topo-ordered at %d", pi, i)
			}
		}
	}
}

func assertPathsCoverGraph(t *testing.T, g *dag.Graph, paths [][]int) {
	t.Helper()
	covered := make(map[int]bool)
	for _, p := range paths {
		if len(p) == 0 {
			t.Fatal("empty path")
		}
		if p[0] != g.Source() || p[len(p)-1] != g.Sink() {
			t.Fatalf("path endpoints wrong: %v", p)
		}
		for _, id := range p {
			covered[id] = true
		}
	}
	for _, id := range g.Topo() {
		if !covered[id] {
			t.Errorf("node %q not covered by any path", g.Node(id).Layer.Name())
		}
	}
}

func TestPlanGeneralDiamond(t *testing.T) {
	g := smallGeneral(t)
	pi, gpu := devices()
	n := 4
	p, err := PlanGeneral(g, pi, gpu, netsim.FourG, tensor.Float32, n, 0)
	if err != nil {
		t.Fatalf("PlanGeneral: %v", err)
	}
	if len(p.Sequence) != n*len(p.Paths) {
		t.Errorf("sequence has %d path jobs, want %d", len(p.Sequence), n*len(p.Paths))
	}
	if len(p.CutNodes) != n {
		t.Errorf("cut sets for %d jobs, want %d", len(p.CutNodes), n)
	}
	for j, cuts := range p.CutNodes {
		if len(cuts) != len(p.Paths) {
			t.Errorf("job %d has %d cut nodes, want one per path", j, len(cuts))
		}
	}
	// Dedup: actual stage lengths never exceed nominal.
	for _, pj := range p.Sequence {
		if pj.ActualF > pj.F+1e-9 || pj.ActualG > pj.G+1e-9 {
			t.Errorf("dedup increased a stage: %+v", pj)
		}
	}
	if p.Makespan <= 0 {
		t.Error("non-positive makespan")
	}
	if p.AvgMs() != p.Makespan/float64(n) {
		t.Error("AvgMs mismatch")
	}
}

func TestPlanGeneralDedupSharedPrefix(t *testing.T) {
	// For one job, the shared prefix (the input node costs 0, but the
	// shared articulation chain in GoogLeNet's stem is expensive) must
	// be charged only once across that job's paths.
	g := models.MustBuild("googlenet")
	pi, gpu := devices()
	p, err := PlanGeneral(g, pi, gpu, netsim.WiFi, tensor.Float32, 1, 0)
	if err != nil {
		t.Fatalf("PlanGeneral: %v", err)
	}
	var actualF, actualG, nominalF, nominalG float64
	for _, pj := range p.Sequence {
		actualF += pj.ActualF
		actualG += pj.ActualG
		nominalF += pj.F
		nominalG += pj.G
	}
	// A single job can never compute more than the whole model once.
	if whole := pi.TotalTimeMs(g); actualF > whole+1e-6 {
		t.Errorf("job executed %g ms of compute, model total is %g", actualF, whole)
	}
	// Duplicated nominal totals must exceed the deduplicated actuals:
	// the four converted paths share at least the stem prefix (compute
	// side) or the same cut tensor (upload side), depending on where
	// the cuts land.
	if nominalF+nominalG <= actualF+actualG {
		t.Errorf("expected duplicated nominal work (%g) to exceed deduplicated actual (%g)",
			nominalF+nominalG, actualF+actualG)
	}
}

// TestPathJobsReplayScheduledUpload: Alg. 3 replays what Johnson's rule
// scheduled. A path curve's G is the upload of its cut tensor and
// nothing else, so every path job that uploads in the replay uploads
// exactly the G it was sequenced on, to the bit.
func TestPathJobsReplayScheduledUpload(t *testing.T) {
	pi, gpu := devices()
	for _, name := range []string{"googlenet", "resnet18", "squeezenet", "mobilenetv2"} {
		g := models.MustBuild(name)
		for _, ch := range netsim.Presets() {
			for _, n := range []int{1, 8, 100} {
				p, err := PlanGeneral(g, pi, gpu, ch, tensor.Float32, n, 0)
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", name, ch.Name, n, err)
				}
				uploads := 0
				for _, pj := range p.Sequence {
					if pj.ActualG == 0 {
						continue
					}
					uploads++
					if pj.ActualG != pj.G {
						t.Errorf("%s/%s n=%d: job %d path %d cut %d replays upload %v ms, scheduled on G = %v",
							name, ch.Name, n, pj.Job, pj.Path, pj.Cut, pj.ActualG, pj.G)
					}
				}
				if uploads == 0 {
					t.Errorf("%s/%s n=%d: no path job uploads, nothing checked", name, ch.Name, n)
				}
			}
		}
	}
}

func TestPlanGeneralBestBeatsNaiveBaselines(t *testing.T) {
	g := models.MustBuild("googlenet")
	pi, gpu := devices()
	n := 20
	for _, ch := range netsim.Presets() {
		gp, err := PlanGeneralBest(g, pi, gpu, ch, tensor.Float32, n, 0)
		if err != nil {
			t.Fatalf("PlanGeneralBest@%s: %v", ch.Name, err)
		}
		curve := profile.BuildCurve(g, pi, gpu, ch, tensor.Float32)
		lo, _ := LO(curve, n)
		co, _ := CO(curve, n)
		if gp.Makespan > lo.Makespan+1e-6 {
			t.Errorf("%s: general-best JPS %g > LO %g", ch.Name, gp.Makespan, lo.Makespan)
		}
		if gp.Makespan > co.Makespan+1e-6 {
			t.Errorf("%s: general-best JPS %g > CO %g", ch.Name, gp.Makespan, co.Makespan)
		}
	}
	// And strictly better than LO somewhere (Wi-Fi at least): the
	// paper's GoogLeNet rows show large reductions.
	gpWifi, _ := PlanGeneralBest(g, pi, gpu, netsim.WiFi, tensor.Float32, n, 0)
	curve := profile.BuildCurve(g, pi, gpu, netsim.WiFi, tensor.Float32)
	lo, _ := LO(curve, n)
	if gpWifi.Makespan >= lo.Makespan {
		t.Errorf("general-best JPS %g shows no Wi-Fi gain over LO %g", gpWifi.Makespan, lo.Makespan)
	}
}

func TestPlanGeneralPureAlg3CaveatAt4G(t *testing.T) {
	// The paper's own caveat: per-path partitioning "omits the
	// potential collaboration opportunity" between paths. On GoogLeNet
	// at 4G, pure Alg. 3 pays one upload per path and loses to LO —
	// PlanGeneralBest exists precisely to absorb this case. Keep the
	// observation pinned so a regression in either direction is
	// noticed.
	g := models.MustBuild("googlenet")
	pi, gpu := devices()
	n := 20
	pure, err := PlanGeneral(g, pi, gpu, netsim.FourG, tensor.Float32, n, 0)
	if err != nil {
		t.Fatalf("PlanGeneral: %v", err)
	}
	best, err := PlanGeneralBest(g, pi, gpu, netsim.FourG, tensor.Float32, n, 0)
	if err != nil {
		t.Fatalf("PlanGeneralBest: %v", err)
	}
	if best.Makespan > pure.Makespan+1e-6 {
		t.Errorf("best (%g) must never exceed pure Alg. 3 (%g)", best.Makespan, pure.Makespan)
	}
}

func TestPlanGeneralRejectsBadN(t *testing.T) {
	g := smallGeneral(t)
	pi, gpu := devices()
	if _, err := PlanGeneral(g, pi, gpu, netsim.WiFi, tensor.Float32, 0, 0); err == nil {
		t.Error("n=0 must error")
	}
}

func TestPlanGeneralOnLineGraphMatchesLineJPS(t *testing.T) {
	// A line DNN has exactly one path; Alg. 3 must degenerate to the
	// line planner's two-point solution space.
	g := models.MustBuild("alexnet")
	pi, gpu := devices()
	n := 8
	gp, err := PlanGeneral(g, pi, gpu, netsim.FourG, tensor.Float32, n, 0)
	if err != nil {
		t.Fatalf("PlanGeneral: %v", err)
	}
	if len(gp.Paths) != 1 {
		t.Fatalf("AlexNet converted to %d paths, want 1", len(gp.Paths))
	}
	curve := profile.BuildCurve(g, pi, gpu, netsim.FourG, tensor.Float32)
	jps, _ := JPS(curve, n)
	if diff := gp.Makespan - jps.Makespan; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("general plan %g != line JPS %g on a line DNN", gp.Makespan, jps.Makespan)
	}
}

func TestPlanGeneralInceptionV4(t *testing.T) {
	g := models.MustBuild("inceptionv4")
	pi, gpu := devices()
	n := 10
	gp, err := PlanGeneralBest(g, pi, gpu, netsim.WiFi, tensor.Float32, n, 0)
	if err != nil {
		t.Fatalf("PlanGeneralBest: %v", err)
	}
	curve := profile.BuildCurve(g, pi, gpu, netsim.WiFi, tensor.Float32)
	lo, _ := LO(curve, n)
	if gp.Makespan >= lo.Makespan {
		t.Errorf("inception-v4 general plan %g shows no Wi-Fi gain over LO %g", gp.Makespan, lo.Makespan)
	}
	// The hierarchical conversion must cover nested Inception-C
	// branch splits (6-way regions).
	pure, err := PlanGeneral(g, pi, gpu, netsim.WiFi, tensor.Float32, 2, 0)
	if err != nil {
		t.Fatalf("PlanGeneral: %v", err)
	}
	if len(pure.Paths) < 4 {
		t.Errorf("converted to %d paths, want >= 4 (widest region is 6-way)", len(pure.Paths))
	}
	assertPathsCoverGraph(t, g, pure.Paths)
}

// TestJobSequenceIsTheJobLevelView: the job-level view of an Alg. 3
// plan holds each job once, with the mobile time of its deduplicated
// path jobs and their upload time less the repeated channel setups, in
// Johnson order. Its makespan is not the path-level Makespan — the
// table this logs is EXPERIMENTS.md's "Path-level vs job-level".
func TestJobSequenceIsTheJobLevelView(t *testing.T) {
	pi, gpu := devices()
	const n = 8
	for _, name := range []string{"googlenet", "resnet18", "squeezenet"} {
		g := models.MustBuild(name)
		for _, ch := range []netsim.Channel{netsim.WiFi, netsim.FourG} {
			gp, err := PlanGeneral(g, pi, gpu, ch, tensor.Float32, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			seq := gp.JobSequence()
			if len(seq) != n {
				t.Fatalf("%s %s: %d jobs in the job-level view, want %d", name, ch.Name, len(seq), n)
			}
			a, b, uploads := make([]float64, n), make([]float64, n), make([]int, n)
			for _, pj := range gp.Sequence {
				a[pj.Job] += pj.ActualF
				b[pj.Job] += pj.ActualG
				if pj.ActualG > 0 {
					uploads[pj.Job]++
				}
			}
			seen := map[int]bool{}
			for _, fj := range seq {
				if seen[fj.ID] {
					t.Fatalf("%s %s: job %d twice", name, ch.Name, fj.ID)
				}
				seen[fj.ID] = true
				wantB := b[fj.ID] - float64(max(uploads[fj.ID]-1, 0))*ch.SetupMs
				if math.Abs(fj.A-a[fj.ID]) > 1e-9 || math.Abs(fj.B-wantB) > 1e-9 {
					t.Errorf("%s %s job %d: (A, B) = (%g, %g), want (%g, %g)", name, ch.Name, fj.ID, fj.A, fj.B, a[fj.ID], wantB)
				}
			}
			johnson := flowshop.Johnson(seq)
			for i := range seq {
				if seq[i] != johnson[i] {
					t.Fatalf("%s %s: job-level view is not Johnson-ordered at %d", name, ch.Name, i)
				}
			}
			jobLevel := flowshop.Makespan(seq)
			t.Logf("%-10s %-5s path-level %.1f ms, job-level %.1f ms (%+.1f%%), up to %d tensors per job",
				name, ch.Name, gp.Makespan, jobLevel, (jobLevel/gp.Makespan-1)*100, slices.Max(uploads))
		}
	}
}

// A lifted line plan has one path job per job, so its job-level view is
// the line plan's own sequence.
func TestJobSequenceOfLinePlanIsItsSequence(t *testing.T) {
	g := models.MustBuild("resnet18")
	pi, gpu := devices()
	curve := profile.BuildCurve(g, pi, gpu, netsim.FourG, tensor.Float32)
	p, err := JPS(curve, 6)
	if err != nil {
		t.Fatal(err)
	}
	seq := generalFromLinePlan(g, curve, p, "JPS-line").JobSequence()
	for i, fj := range p.Sequence {
		if seq[i] != fj {
			t.Fatalf("position %d: %+v, line plan has %+v", i, seq[i], fj)
		}
	}
}
