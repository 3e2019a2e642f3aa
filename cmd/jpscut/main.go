// Command jpscut plans a batch of inference jobs for one model and
// bandwidth: it prints the profiled cut curve, the Algorithm 2 search
// result, the JPS plan with its Johnson schedule and an ASCII Gantt
// chart, and a comparison against the CO/LO/PO baselines.
//
// Usage:
//
//	jpscut -model alexnet -mbps 5.85 -n 8
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"dnnjps/internal/core"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/report"
	"dnnjps/internal/tensor"
)

func main() {
	var (
		model = flag.String("model", "alexnet", "model name: "+fmt.Sprint(models.Names()))
		mbps  = flag.Float64("mbps", 5.85, "uplink bandwidth in Mb/s")
		n     = flag.Int("n", 8, "number of identical inference jobs")
		width = flag.Int("width", 100, "gantt chart width")
	)
	flag.Parse()
	if err := run(*model, *mbps, *n, *width); err != nil {
		fmt.Fprintln(os.Stderr, "jpscut:", err)
		os.Exit(1)
	}
}

func run(model string, mbps float64, n, width int) error {
	if !(mbps > 0) || math.IsInf(mbps, 1) {
		return fmt.Errorf("-mbps %g: want a finite bandwidth above 0", mbps)
	}
	g, err := models.Build(model)
	if err != nil {
		return err
	}
	ch := netsim.At(mbps)
	curve := profile.BuildCurve(g, profile.RaspberryPi4(), profile.CloudGPU(), ch, tensor.Float32)

	// Curve with Pareto candidates marked.
	pareto := map[int]bool{}
	for _, i := range curve.ParetoCuts() {
		pareto[i] = true
	}
	ct := report.NewTable(fmt.Sprintf("Cut curve for %s at %s", model, ch),
		"Pos", "Block", "f(l) ms", "g(l) ms", "cloud ms", "bytes", "candidate")
	for i := 0; i < curve.Len(); i++ {
		ct.AddRow(i, curve.Labels[i], curve.F[i], curve.G[i], curve.CloudMs[i], curve.Bytes[i], pareto[i])
	}
	if err := ct.Render(os.Stdout); err != nil {
		return err
	}

	search, idx, err := core.SearchCurve(curve)
	if err != nil {
		return err
	}
	fmt.Printf("\nAlgorithm 2: l* = position %d (curve index %d, block %s), ratio = %d, exact = %v, %d search steps\n",
		search.LStar, idx[search.LStar], curve.Labels[idx[search.LStar]], search.Ratio, search.Exact, search.Steps)

	if sol, err := core.SolveContinuous(curve); err == nil {
		fmt.Printf("Theorem 5.2 relaxation: x* = %.3f, f(x*) = g(x*) = %.1f ms (avg makespan at the crossing on the Pareto polyline, a lower bound only where it is convex)\n",
			sol.XStar, sol.FAtXStar)
	}

	jps, err := core.JPS(curve, n)
	if err != nil {
		return err
	}
	fmt.Printf("\nJPS plan for n=%d: makespan %.1f ms (avg %.1f ms/job)\n", n, jps.Makespan, jps.AvgMs())
	st := report.NewTable("Johnson schedule", "Order", "Job", "Cut block", "f ms", "g ms", "set")
	for i, j := range jps.Sequence {
		set := "S2 (comp-heavy)"
		if j.CommHeavy() {
			set = "S1 (comm-heavy)"
		}
		st.AddRow(i, j.ID, curve.Labels[jps.Cuts[j.ID]], j.A, j.B, set)
	}
	if err := st.Render(os.Stdout); err != nil {
		return err
	}

	comp, comm := flowshop.Gantt(jps.Sequence)
	lanes := map[string][]report.GanttBar{}
	for _, iv := range comp {
		lanes["mobile"] = append(lanes["mobile"], report.GanttBar{
			Label: fmt.Sprint(iv.JobID % 10), Start: iv.Start, End: iv.End})
	}
	for _, iv := range comm {
		lanes["uplink"] = append(lanes["uplink"], report.GanttBar{
			Label: fmt.Sprint(iv.JobID % 10), Start: iv.Start, End: iv.End})
	}
	fmt.Println()
	if err := report.Gantt(os.Stdout, lanes, []string{"mobile", "uplink"}, width); err != nil {
		return err
	}

	bt := report.NewTable("Baselines", "Scheme", "Makespan ms", "Avg ms", "vs JPS")
	for _, fn := range []func(*profile.Curve, int) (*core.Plan, error){core.JPS, core.JPSPlus, core.PO, core.CO, core.LO} {
		p, err := fn(curve, n)
		if err != nil {
			return err
		}
		bt.AddRow(p.Method, p.Makespan, p.AvgMs(), fmt.Sprintf("%+.1f%%", (p.Makespan/jps.Makespan-1)*100))
	}
	fmt.Println()
	return bt.Render(os.Stdout)
}
