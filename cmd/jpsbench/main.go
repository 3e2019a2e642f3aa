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
// -model names the model of the figures that run one; the others plot
// fixed models.
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

// shedMark is the queue depth at which the fleet figure's overload row
// arms admission control.
const shedMark = 48

// modeledIDs are pure functions of the planners — what -all runs and
// the tests freeze; liveIDs run the real engine in real time.
var modeledIDs, liveIDs = figureIDs(false), figureIDs(true)

func figureIDs(live bool) []string {
	var ids []string
	for _, f := range figures {
		if f.live == live {
			ids = append(ids, f.id)
		}
	}
	return ids
}

// nExplicit records whether -n was set on the command line; the batch
// and fleet experiments sweep their default counts otherwise.
var nExplicit bool

func main() {
	var (
		all        = flag.Bool("all", false, "run every experiment")
		fig        = flag.String("fig", "", "experiment id: "+strings.Join(slices.Concat(modeledIDs, liveIDs), ", "))
		model      = flag.String("model", "alexnet", "model for the figures that run one; the others plot fixed models (alexnet, mobilenetv2, ...)")
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

// run makes one figure's tables.
func run(env experiments.Env, id, model, traceOut, traceJSON, adaptTrace string) ([]*report.Table, error) {
	// The experiments panic on a model they do not know; a -model typo
	// is the user's to fix, so it is reported, not raised.
	if _, err := models.Build(model); err != nil {
		return nil, err
	}
	i := slices.IndexFunc(figures, func(f figure) bool { return f.id == id })
	if i < 0 {
		return nil, fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(slices.Concat(modeledIDs, liveIDs), ", "))
	}
	return figures[i].tables(req{env, model, traceOut, traceJSON, adaptTrace})
}

// req is what a figure reads from the command line.
type req struct {
	env                             experiments.Env
	model                           string
	traceOut, traceJSON, adaptTrace string
}

// figure names one experiment once: its -fig id, whether it runs live
// (real engine compute in real time, so never part of -all) and how its
// tables are made.
type figure struct {
	id     string
	live   bool
	tables func(r req) ([]*report.Table, error)
}

// one is the last step most figures share: their experiment's error,
// or the one table its result renders to.
func one[T any](table func(T) *report.Table) func(T, error) ([]*report.Table, error) {
	return func(v T, err error) ([]*report.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*report.Table{table(v)}, nil
	}
}

// figures is every experiment, the modeled ones first, in -all's order.
var figures = []figure{
	{id: "4", tables: func(r req) ([]*report.Table, error) {
		rows := experiments.Fig4(r.env, r.model, netsim.WiFi)
		return []*report.Table{experiments.Fig4Table(r.model, netsim.WiFi, rows)}, nil
	}},
	{id: "11", tables: func(r req) ([]*report.Table, error) {
		return one(experiments.Fig11Table)(experiments.Fig11(r.env, netsim.FourG))
	}},
	{id: "12", tables: func(r req) ([]*report.Table, error) {
		return one(experiments.Fig12Table)(experiments.Fig12(r.env))
	}},
	{id: "12d", tables: func(r req) ([]*report.Table, error) {
		return one(experiments.Fig12OverheadTable)(experiments.Fig12Overhead(r.env, netsim.FourG))
	}},
	{id: "table1", tables: func(r req) ([]*report.Table, error) {
		return one(func(cells []experiments.Fig12Cell) *report.Table {
			return experiments.Table1Table(experiments.Table1(cells))
		})(experiments.Fig12(r.env))
	}},
	{id: "13", tables: func(r req) ([]*report.Table, error) {
		var tables []*report.Table
		for _, m := range []string{"alexnet", "mobilenetv2"} {
			rows, err := experiments.Fig13(r.env, m, experiments.DefaultBandwidths())
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
	}},
	{id: "14", tables: func(r req) ([]*report.Table, error) {
		bands := []float64{9, 10, 11}
		var tables []*report.Table
		for _, cfg := range []struct {
			model  string
			ratios []float64
		}{
			{"resnet18", []float64{2, 3, 4, 5, 6, 7, 8, 9}},
			{"googlenet", []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}},
		} {
			rows, err := experiments.Fig14(r.env, cfg.model, cfg.ratios, bands)
			if err != nil {
				return nil, err
			}
			tables = append(tables, experiments.Fig14Table(cfg.model, bands, rows))
		}
		return tables, nil
	}},
	{id: "ablations", tables: func(r req) ([]*report.Table, error) {
		sched, err := experiments.AblationScheduling(r.env, 7)
		if err != nil {
			return nil, err
		}
		mix, err := experiments.AblationMixStrategies(r.env)
		if err != nil {
			return nil, err
		}
		vb, err := experiments.AblationVirtualBlocks(r.env)
		if err != nil {
			return nil, err
		}
		return []*report.Table{
			experiments.AblationSchedulingTable(sched),
			experiments.AblationMixTable(mix),
			experiments.AblationVirtualBlocksTable(vb),
		}, nil
	}},
	{id: "hetero", tables: func(r req) ([]*report.Table, error) {
		return one(experiments.HeteroTable)(experiments.HeteroWorkload(r.env))
	}},
	{id: "stream", tables: func(r req) ([]*report.Table, error) {
		return one(func(rows []experiments.StreamRow) *report.Table {
			return experiments.StreamTable(r.model, netsim.FourG, rows)
		})(experiments.Stream(r.env, r.model, netsim.FourG, []float64{0.5, 1, 2, 3, 4, 6, 8}, 120))
	}},
	{id: "dtypes", tables: func(r req) ([]*report.Table, error) {
		return one(experiments.AblationDTypesTable)(experiments.AblationDTypes(r.env))
	}},
	{id: "quant", tables: func(r req) ([]*report.Table, error) {
		return one(experiments.QuantTable)(experiments.Quant(r.env))
	}},
	{id: "3tier", tables: func(r req) ([]*report.Table, error) {
		return one(experiments.ThreeTierTable)(experiments.ThreeTier(r.env))
	}},
	{id: "chain", tables: func(r req) ([]*report.Table, error) {
		// k-way chains: the depth sweep uses -n jobs; the heuristic-gap
		// leg fixes n=2 because the brute-force baseline enumerates
		// multisets over the full cut-tuple space and is exponential in n.
		rows, err := experiments.ChainDepth(r.env)
		if err != nil {
			return nil, err
		}
		gaps, err := experiments.ChainGap(r.env, 2)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.ChainDepthTable(rows), experiments.ChainGapTable(gaps)}, nil
	}},
	{id: "robust", tables: func(r req) ([]*report.Table, error) {
		return one(func(rows []experiments.RobustnessRow) *report.Table {
			return experiments.RobustnessTable(r.model, netsim.FourG, rows)
		})(experiments.Robustness(r.env, r.model, netsim.FourG, []float64{-50, -25, -10, 0, 10, 25, 50, 100}))
	}},
	{id: "runtime", live: true, tables: func(r req) ([]*report.Table, error) {
		// Real engine compute on this host plus the simulated Wi-Fi
		// channel in real time, so a run takes a few seconds. The second
		// row is GoogLeNet's Algorithm 3 plan: cut-node sets, several
		// boundary tensors per job, on the same pipelined client.
		res, err := experiments.RuntimePipeline(r.env, r.model, netsim.WiFi, 8, 1.0)
		if err != nil {
			return nil, err
		}
		gen, err := experiments.RuntimePipelineGeneral(r.env, "googlenet", netsim.WiFi, 8, 1.0)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.RuntimeTable([]*experiments.RuntimeResult{res, gen})}, nil
	}},
	{id: "faults", live: true, tables: func(r req) ([]*report.Table, error) {
		// Injected uplink frame drops: the same plan runs through the
		// fault-tolerant runner at each drop rate and is compared against
		// the no-fault Prop. 4.1 closed form. The last row is GoogLeNet's
		// Algorithm 3 plan at 5% drops.
		rows, err := experiments.RuntimeFaults(r.env, r.model, netsim.WiFi, 12, 1.0,
			[]float64{0, 1, 5, 20}, 1)
		if err != nil {
			return nil, err
		}
		gen, err := experiments.RuntimeFaultsGeneral(r.env, "googlenet", netsim.WiFi, 12, 1.0,
			[]float64{5}, 1)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.RuntimeFaultsTable(append(rows, gen...))}, nil
	}},
	{id: "trace", live: true, tables: func(r req) ([]*report.Table, error) {
		// The run is recorded span by span, bridged into Gantt form, and
		// plotted against the Prop. 4.1 pipeline the plan was priced on.
		res, err := experiments.RuntimeTrace(r.env, r.model, netsim.WiFi, 8, 1.0)
		if err != nil {
			return nil, err
		}
		if err := experiments.TraceGantt(os.Stdout, res, 96); err != nil {
			return nil, err
		}
		fmt.Println()
		if err := writeFile(r.traceOut, "Chrome trace (open in chrome://tracing or Perfetto)", res.Tracer.WriteChromeTrace); err != nil {
			return nil, err
		}
		if err := writeFile(r.traceJSON, "span JSON", res.Tracer.WriteJSON); err != nil {
			return nil, err
		}
		return []*report.Table{experiments.TraceTable(res)}, nil
	}},
	{id: "batch", live: true, tables: func(r req) ([]*report.Table, error) {
		// The server's tail groups: a cloud-only plan floods the server
		// at each job count.
		counts := []int{8, 32, 128}
		if nExplicit {
			counts = []int{r.env.NJobs}
		}
		return one(experiments.RuntimeBatchTable)(experiments.RuntimeBatch(r.env, r.model, netsim.WiFi, counts, 1e-3))
	}},
	{id: "fleet", live: true, tables: func(r req) ([]*report.Table, error) {
		// Fleet-scale serving: N concurrent clients on independent TCP
		// connections against one shared server, sweeping the client
		// count, plus an overload row with admission control armed.
		counts := []int{1, 4, 8, 16, 32}
		if nExplicit {
			counts = []int{r.env.NJobs}
		}
		return one(experiments.RuntimeFleetTable)(experiments.RuntimeFleet(r.env, r.model, netsim.WiFi, counts, 8, shedMark, 1e-3))
	}},
	{id: "adapt", live: true, tables: func(r req) ([]*report.Table, error) {
		// Continuous adaptive replanning under a scripted mid-batch
		// step-down: three policies (static plan, continuous estimator,
		// perfect-foresight oracle) against the same degrading loopback
		// link.
		rows, trace, err := experiments.RuntimeAdapt(r.env, r.env.NJobs, 1.0, 1)
		if err != nil {
			return nil, err
		}
		if trace != nil {
			if err := writeFile(r.adaptTrace, "estimator replay trace", trace.WriteJSON); err != nil {
				return nil, err
			}
		}
		return []*report.Table{experiments.RuntimeAdaptTable(rows)}, nil
	}},
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
	werr := t.WriteCSV(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
