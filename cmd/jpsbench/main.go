// Command jpsbench regenerates the paper's tables and figures: per
// experiment or all at once, as text tables and optional CSV files.
//
// Usage:
//
//	jpsbench -all
//	jpsbench -fig 12 -n 100
//	jpsbench -fig 13 -csv out/
//	jpsbench -fig 4 -model mobilenetv2
//	jpsbench -fig batch -model mobilenetv2
//
// -model applies to figures 4, runtime, trace, faults, stream, batch,
// fleet and robust; the others plot fixed models.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dnnjps/internal/experiments"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/report"
)

// shedMark is the fleet figure's admission knob.
var shedMark = flag.Int("shed-watermark", 48, "with -fig fleet: queue depth of the overload row's admission control (0 skips the row)")

// The experiment ids, spelt here and in run's case labels only.
// modeledIDs are pure functions of the planners — what -all runs and
// the tests freeze; liveIDs run the real engine in real time.
var (
	modeledIDs = []string{"4", "11", "12", "12d", "table1", "13", "14", "ablations", "hetero", "stream", "dtypes", "quant", "3tier", "chain", "robust"}
	liveIDs    = []string{"runtime", "faults", "trace", "batch", "fleet", "adapt"}
)

// nExplicit records whether -n was set on the command line; the batch
// experiment sweeps its default job counts otherwise.
var nExplicit bool

func main() {
	var (
		all        = flag.Bool("all", false, "run every experiment")
		fig        = flag.String("fig", "", "experiment id: "+strings.Join(slices.Concat(modeledIDs, liveIDs), ", "))
		model      = flag.String("model", "alexnet", "model for figures 4, runtime, trace, faults, stream, batch, fleet and robust (alexnet, mobilenetv2, ...)")
		n          = flag.Int("n", 100, "number of inference jobs")
		csvDir     = flag.String("csv", "", "directory to also write tables as CSV")
		traceOut   = flag.String("trace-out", "", "with -fig trace: also write the recorded spans as Chrome trace_event JSON to this file")
		traceJSON  = flag.String("trace-json", "", "with -fig trace: also write the recorded spans as plain JSON (obs.ReadJSON format, used by the committed regression corpus)")
		adaptTrace = flag.String("adapt-trace", "", "with -fig adapt: also write the continuous run's recorded estimator samples and golden change points as JSON (estimator.ReplayTrace format, used by the committed regression corpus)")
	)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "n" {
			nExplicit = true
		}
	})

	env := experiments.DefaultEnv()
	env.NJobs = *n

	ids := []string{*fig}
	if *all {
		ids = modeledIDs
	}
	if !*all && *fig == "" {
		flag.Usage()
		os.Exit(2)
	}
	for _, id := range ids {
		tables, err := run(env, id, *model, *traceOut, *traceJSON, *adaptTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jpsbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "jpsbench: render: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					fmt.Fprintf(os.Stderr, "jpsbench: csv: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
}

func run(env experiments.Env, id, model, traceOut, traceJSON, adaptTrace string) ([]*report.Table, error) {
	// The experiments panic on a model they do not know; a -model typo
	// is the user's to fix, so it is reported, not raised.
	if _, err := models.Build(model); err != nil {
		return nil, err
	}
	switch id {
	case "4":
		rows := experiments.Fig4(env, model, netsim.WiFi)
		return []*report.Table{experiments.Fig4Table(model, netsim.WiFi, rows)}, nil
	case "11":
		rows, err := experiments.Fig11(env, netsim.FourG)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.Fig11Table(rows)}, nil
	case "12":
		cells, err := experiments.Fig12(env)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.Fig12Table(cells)}, nil
	case "12d":
		rows, err := experiments.Fig12Overhead(env, netsim.FourG)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.Fig12OverheadTable(rows)}, nil
	case "table1":
		cells, err := experiments.Fig12(env)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.Table1Table(experiments.Table1(cells))}, nil
	case "13":
		var tables []*report.Table
		for _, m := range []string{"alexnet", "mobilenetv2"} {
			rows, err := experiments.Fig13(env, m, experiments.DefaultBandwidths())
			if err != nil {
				return nil, err
			}
			t := experiments.Fig13Table(m, rows)
			lo, hi, ok := experiments.BenefitRange(rows, 0.01)
			if ok {
				t.Title += fmt.Sprintf(" — benefit range [%.0f, %.0f] Mb/s", lo, hi)
			}
			tables = append(tables, t)
		}
		return tables, nil
	case "14":
		bands := []float64{9, 10, 11}
		var tables []*report.Table
		for _, cfg := range []struct {
			model  string
			ratios []float64
		}{
			{"resnet18", []float64{2, 3, 4, 5, 6, 7, 8, 9}},
			{"googlenet", []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}},
		} {
			rows, err := experiments.Fig14(env, cfg.model, cfg.ratios, bands)
			if err != nil {
				return nil, err
			}
			tables = append(tables, experiments.Fig14Table(cfg.model, bands, rows))
		}
		return tables, nil
	case "ablations":
		sched, err := experiments.AblationScheduling(env, 7)
		if err != nil {
			return nil, err
		}
		mix, err := experiments.AblationMixStrategies(env)
		if err != nil {
			return nil, err
		}
		vb, err := experiments.AblationVirtualBlocks(env)
		if err != nil {
			return nil, err
		}
		return []*report.Table{
			experiments.AblationSchedulingTable(sched),
			experiments.AblationMixTable(mix),
			experiments.AblationVirtualBlocksTable(vb),
		}, nil
	case "runtime":
		// Live execution: real engine compute on this host plus the
		// simulated Wi-Fi channel in real time, so a run takes a few
		// seconds. Deliberately not part of -all.
		// The second row is GoogLeNet's Algorithm 3 plan: cut-node sets,
		// several boundary tensors per job, on the same pipelined client.
		res, err := experiments.RuntimePipeline(env, model, netsim.WiFi, 8, 1.0)
		if err != nil {
			return nil, err
		}
		gen, err := experiments.RuntimePipelineGeneral(env, "googlenet", netsim.WiFi, 8, 1.0)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.RuntimeTable([]*experiments.RuntimeResult{res, gen})}, nil
	case "trace":
		// Instrumented live execution: the run is recorded span by span,
		// bridged into Gantt form, and plotted against the Prop. 4.1
		// pipeline the plan was priced on. Real time, not part of -all.
		res, err := experiments.RuntimeTrace(env, model, netsim.WiFi, 8, 1.0)
		if err != nil {
			return nil, err
		}
		if err := experiments.TraceGantt(os.Stdout, res, 96); err != nil {
			return nil, err
		}
		fmt.Println()
		if err := writeFile(traceOut, "Chrome trace (open in chrome://tracing or Perfetto)", res.Tracer.WriteChromeTrace); err != nil {
			return nil, err
		}
		if err := writeFile(traceJSON, "span JSON", res.Tracer.WriteJSON); err != nil {
			return nil, err
		}
		return []*report.Table{experiments.TraceTable(res)}, nil
	case "faults":
		// Live execution under injected uplink frame drops: the same
		// plan runs through the fault-tolerant runner at each drop rate
		// and is compared against the no-fault Prop. 4.1 closed form.
		// Like "runtime", this runs in real time and is not part of -all.
		// The last row is GoogLeNet's Algorithm 3 plan at 5% drops.
		rows, err := experiments.RuntimeFaults(env, model, netsim.WiFi, 12, 1.0,
			[]float64{0, 1, 5, 20}, 1)
		if err != nil {
			return nil, err
		}
		gen, err := experiments.RuntimeFaultsGeneral(env, "googlenet", netsim.WiFi, 12, 1.0,
			[]float64{5}, 1)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.RuntimeFaultsTable(append(rows, gen...))}, nil
	case "hetero":
		rows, err := experiments.HeteroWorkload(env)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.HeteroTable(rows)}, nil
	case "stream":
		rows, err := experiments.Stream(env, model, netsim.FourG,
			[]float64{0.5, 1, 2, 3, 4, 6, 8}, 120)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.StreamTable(model, netsim.FourG, rows)}, nil
	case "dtypes":
		rows, err := experiments.AblationDTypes(env)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.AblationDTypesTable(rows)}, nil
	case "quant":
		rows, err := experiments.Quant(env)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.QuantTable(rows)}, nil
	case "3tier":
		rows, err := experiments.ThreeTier(env)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.ThreeTierTable(rows)}, nil
	case "chain":
		// k-way chains: the depth sweep uses -n jobs; the heuristic-gap
		// leg fixes n=2 because the brute-force baseline enumerates
		// multisets over the full cut-tuple space and is exponential in n.
		rows, err := experiments.ChainDepth(env)
		if err != nil {
			return nil, err
		}
		gaps, err := experiments.ChainGap(env, 2)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.ChainDepthTable(rows), experiments.ChainGapTable(gaps)}, nil
	case "batch":
		// Live execution of the server's tail groups: a cloud-only plan
		// floods the server at each job count. Real engine compute in
		// real time, not part of -all.
		counts := []int{8, 32, 128}
		if nExplicit {
			counts = []int{env.NJobs}
		}
		rows, err := experiments.RuntimeBatch(env, model, netsim.WiFi, counts, 1e-3)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.RuntimeBatchTable(rows)}, nil
	case "fleet":
		// Fleet-scale serving: N concurrent clients on independent TCP
		// connections against one shared server, sweeping the client
		// count, plus an overload row with admission control armed. Real
		// engine compute in real time, not part of -all.
		counts := []int{1, 4, 8, 16, 32}
		if nExplicit {
			counts = []int{env.NJobs}
		}
		rows, err := experiments.RuntimeFleet(env, model, netsim.WiFi, counts, 8, *shedMark, 1e-3)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.RuntimeFleetTable(rows)}, nil
	case "adapt":
		// Continuous adaptive replanning under a scripted mid-batch
		// step-down: three policies (static plan, continuous estimator,
		// perfect-foresight oracle) against the same degrading loopback
		// link. Real engine compute in real time, not part of -all.
		rows, trace, err := experiments.RuntimeAdapt(env, env.NJobs, 1.0, 1)
		if err != nil {
			return nil, err
		}
		if trace != nil {
			if err := writeFile(adaptTrace, "estimator replay trace", trace.WriteJSON); err != nil {
				return nil, err
			}
		}
		return []*report.Table{experiments.RuntimeAdaptTable(rows)}, nil
	case "robust":
		rows, err := experiments.Robustness(env, model, netsim.FourG,
			[]float64{-50, -25, -10, 0, 10, 25, 50, 100})
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.RobustnessTable(model, netsim.FourG, rows)}, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(slices.Concat(modeledIDs, liveIDs), ", "))
	}
}

// writeFile creates path ("", an unset flag, writes nothing), has write
// fill it and closes it — the first error wins — and says what went where.
func writeFile(path, what string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("wrote %s to %s\n\n", what, path)
	return nil
}

func writeCSV(dir string, t *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, t.Title)
	if len(name) > 80 {
		name = name[:80]
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
