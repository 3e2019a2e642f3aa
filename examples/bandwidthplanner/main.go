// Bandwidth planner: for a chosen model, sweep the uplink bandwidth
// (Fig. 13) and report where joint partition+scheduling actually pays
// off — the "benefit range" an operator would use to decide whether
// offloading is worth enabling on a given network.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dnnjps/internal/experiments"
	"dnnjps/internal/models"
	"dnnjps/internal/report"
)

// The flags live at package scope so Example can run main more than once.
var (
	model = flag.String("model", "mobilenetv2", "model name: "+fmt.Sprint(models.Names()))
	n     = flag.Int("n", 50, "jobs per batch")
)

func main() {
	flag.Parse()

	env := experiments.DefaultEnv()
	env.NJobs = *n
	bands := []float64{1, 2, 3, 5, 8, 12, 18.88, 25, 35, 50, 65, 80}

	rows, err := experiments.Fig13(env, *model, bands)
	if err != nil {
		log.Fatal(err)
	}
	t := report.NewTable(fmt.Sprintf("Offloading payoff for %s (%d jobs/batch, avg ms/job)", *model, *n),
		"Mbps", "LO", "CO", "PO", "JPS", "Best")
	for _, r := range rows {
		best := "JPS"
		switch {
		case r.LOMs < r.JPSMs*0.999:
			best = "LO"
		case r.COMs < r.JPSMs*0.999:
			best = "CO"
		}
		t.AddRow(r.Mbps, r.LOMs, r.COMs, r.POMs, r.JPSMs, best)
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if lo, hi, ok := experiments.BenefitRange(rows, 0.01); ok {
		fmt.Printf("\nJPS beats both local-only and cloud-only from %.0f to %.0f Mb/s", lo, hi)
		fmt.Println(" — enable offloading inside this window.")
	} else {
		fmt.Println("\nno bandwidth in the sweep where joint offloading wins; run locally.")
	}
}
