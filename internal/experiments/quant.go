package experiments

// The quantized-inference experiment: price the int8 path end to end —
// quantized mobile compute (profile.Device.Quantized) AND 1-byte cut
// tensors on the wire — and compare the resulting joint plans against
// float32 across bandwidths. Quantization attacks both curves at once:
// f(l) drops because the heavy mobile layers run on int8 kernels, and
// g(l) drops 4x because boundary activations ship as codes. The two
// pulls oppose each other at the crossing layer — cheaper uploads move
// the best cut earlier, a faster mobile prefix moves it later — so
// where the cut lands is a genuinely joint outcome, which is the
// paper's thesis applied to a deployment knob it never evaluated.

import (
	"dnnjps/internal/core"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/report"
	"dnnjps/internal/tensor"
)

// QuantRow is one (model, channel) comparison of the float32 and int8
// deployments.
type QuantRow struct {
	Model    string
	Channel  string
	FP32Ms   float64 // JPS avg ms, float32 compute + float32 wire
	QuantMs  float64 // JPS avg ms, int8 compute + int8 wire
	FP32Cut  int     // single-job crossing layer, float32
	QuantCut int     // single-job crossing layer, int8
}

// Quant sweeps the preset channels for each model, planning with the
// float32 curve and the fully quantized curve.
func Quant(env Env) ([]QuantRow, error) {
	qMobile := env.Mobile.Quantized()
	var rows []QuantRow
	for _, model := range []string{"alexnet", "mobilenetv2"} {
		g := mustModel(model)
		for _, ch := range netsim.Presets() {
			row := QuantRow{Model: model, Channel: ch.Name}
			for _, leg := range []struct {
				mobile profile.Device
				dt     tensor.DType
				ms     *float64
				cut    *int
			}{
				{env.Mobile, tensor.Float32, &row.FP32Ms, &row.FP32Cut},
				{qMobile, tensor.Int8, &row.QuantMs, &row.QuantCut},
			} {
				curve := profile.BuildCurve(g, leg.mobile, env.Cloud, ch, leg.dt)
				search, _, err := core.SearchCurve(curve)
				if err != nil {
					return nil, err
				}
				*leg.cut = search.LStar
				plan, err := core.JPS(curve, env.NJobs)
				if err != nil {
					return nil, err
				}
				*leg.ms = plan.AvgMs()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// QuantTable renders the rows.
func QuantTable(rows []QuantRow) *report.Table {
	t := report.NewTable("Extension — int8 quantized deployment (quantized mobile compute + 1-byte cut tensors), JPS avg ms",
		"Model", "Channel", "FP32 ms", "Int8 ms", "Speedup", "FP32 cut", "Int8 cut", "Shift")
	for _, r := range rows {
		speedup := 0.0
		if r.QuantMs > 0 {
			speedup = r.FP32Ms / r.QuantMs
		}
		t.AddRow(displayName(r.Model), r.Channel, r.FP32Ms, r.QuantMs, speedup,
			r.FP32Cut, r.QuantCut, r.QuantCut-r.FP32Cut)
	}
	return t
}
