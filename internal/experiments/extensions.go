package experiments

// Extension experiments beyond the paper's evaluation, exercising the
// future-work directions its conclusion names (heterogeneous jobs) and
// the deployment questions a user of the system hits immediately
// (streaming arrivals, quantized activations).

import (
	"fmt"

	"dnnjps/internal/core"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/report"
	"dnnjps/internal/sim"
	"dnnjps/internal/tensor"
)

// HeteroRow compares joint vs isolated planning of a mixed workload at
// one channel.
type HeteroRow struct {
	Channel string
	JPSMs   float64 // JPSHetero makespan
	POMs    float64 // per-class PO, union Johnson-scheduled
	LOMs    float64
	COMs    float64
}

// HeteroWorkload runs the paper's motivating mixed scenario — an AR
// device running AlexNet detections, MobileNet-v2 segmentations and
// ResNet-18 trackers in the same burst — across the three channels.
func HeteroWorkload(env Env) ([]HeteroRow, error) {
	var rows []HeteroRow
	for _, ch := range netsim.Presets() {
		classes := []core.JobClass{
			{Curve: env.curveFor(mustModel("alexnet"), ch), Count: 6},
			{Curve: env.curveFor(mustModel("mobilenetv2"), ch), Count: 6},
			{Curve: env.curveFor(mustModel("resnet18"), ch), Count: 4},
		}
		jps, err := core.JPSHetero(classes)
		if err != nil {
			return nil, err
		}
		row := HeteroRow{Channel: ch.Name, JPSMs: jps.Makespan}
		for _, b := range []struct {
			dst *float64
			fn  func(*profile.Curve, int) (*core.Plan, error)
		}{
			{&row.POMs, core.PO},
			{&row.LOMs, core.LO},
			{&row.COMs, core.CO},
		} {
			p, err := core.HeteroBaseline("", b.fn, classes)
			if err != nil {
				return nil, err
			}
			*b.dst = p.Makespan
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// HeteroTable renders the rows.
func HeteroTable(rows []HeteroRow) *report.Table {
	t := report.NewTable("Extension — heterogeneous workload (6 AlexNet + 6 MobileNet-v2 + 4 ResNet18), makespan ms",
		"Channel", "JPS-hetero", "PO", "LO", "CO")
	for _, r := range rows {
		t.AddRow(r.Channel, r.JPSMs, r.POMs, r.LOMs, r.COMs)
	}
	return t
}

// StreamRow is one arrival-rate point of the streaming experiment.
type StreamRow struct {
	FPS          float64
	Sustainable  bool
	P50SojournMs float64
	MaxSojournMs float64
}

// Stream runs a periodic frame stream of the model through the JPS
// mix and the event simulator, sweeping the frame rate, and reports
// per-frame sojourn times (completion − release).
func Stream(env Env, model string, ch netsim.Channel, fpsList []float64, frames int) ([]StreamRow, error) {
	if frames <= 0 {
		frames = 120
	}
	curve := env.curveFor(mustModel(model), ch)
	var rows []StreamRow
	for _, fps := range fpsList {
		if fps <= 0 {
			return nil, fmt.Errorf("experiments: non-positive fps %g", fps)
		}
		interval := 1000 / fps
		plan, err := core.PlanStream(curve, core.PeriodicReleases(frames, interval))
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.FromStreamPlan(plan))
		if err != nil {
			return nil, err
		}
		sojourns := make([]float64, 0, frames)
		maxS := 0.0
		for _, j := range plan.Jobs {
			s := res.Completions[j.ID] - j.ReleaseMs
			sojourns = append(sojourns, s)
			if s > maxS {
				maxS = s
			}
		}
		rows = append(rows, StreamRow{
			FPS:          fps,
			Sustainable:  plan.Sustainable(interval),
			P50SojournMs: median(sojourns),
			MaxSojournMs: maxS,
		})
	}
	return rows, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort; n is small
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// StreamTable renders the rows.
func StreamTable(model string, ch netsim.Channel, rows []StreamRow) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Extension — streaming %s frames over %s (sojourn per frame)", displayName(model), ch.Name),
		"FPS", "Sustainable", "P50 sojourn (ms)", "Max sojourn (ms)")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.1f", r.FPS), r.Sustainable, r.P50SojournMs, r.MaxSojournMs)
	}
	return t
}

// DTypeRow is one (model, dtype) cell of the quantized-activation
// ablation: shrinking the wire format shifts every g(l) down and moves
// the crossing layer earlier.
type DTypeRow struct {
	Model    string
	DType    string
	JPSMs    float64 // avg ms at 4G
	CutShift int     // crossing position vs float32 (negative = earlier)
}

// AblationDTypes compares float32/float16/int8 activation transport.
func AblationDTypes(env Env) ([]DTypeRow, error) {
	var rows []DTypeRow
	for _, model := range []string{"alexnet", "mobilenetv2"} {
		g := mustModel(model)
		base := -1
		for _, dt := range []tensor.DType{tensor.Float32, tensor.Float16, tensor.Int8} {
			curve := profile.BuildCurve(g, env.Mobile, env.Cloud, netsim.FourG, dt)
			search, _, err := core.SearchCurve(curve)
			if err != nil {
				return nil, err
			}
			if base < 0 {
				base = search.LStar
			}
			plan, err := core.JPS(curve, env.NJobs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, DTypeRow{
				Model:    model,
				DType:    dt.String(),
				JPSMs:    plan.AvgMs(),
				CutShift: search.LStar - base,
			})
		}
	}
	return rows, nil
}

// AblationDTypesTable renders the rows.
func AblationDTypesTable(rows []DTypeRow) *report.Table {
	t := report.NewTable("Extension — activation wire format (4G, avg ms/job)",
		"Model", "DType", "JPS avg ms", "Crossing shift")
	for _, r := range rows {
		t.AddRow(displayName(r.Model), r.DType, r.JPSMs, r.CutShift)
	}
	return t
}
