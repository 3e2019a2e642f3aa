// Command benchmark is the repository's benchmark driver: five closed-loop
// workloads over the live stack, every timing a minimum over many short
// rounds of fixed work. See README.md in this directory.
//
//	bash benchmark/run.sh -workload <name> [-seed N] [-seconds S] [-trace 1]
//	bash benchmark/run.sh -aa K
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runSeconds is the timed length of a run unless -seconds says otherwise;
// BENCHMARK.json states the same number.
const runSeconds = 15

// setUps is how many times a plain run sets the workload up before it
// measures the last instance; setup_s is the median of them.
const setUps = 3

// outDir receives result records and traces, relative to the checkout root.
const outDir = "benchmark/out"

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	roundMs []float64 // every timed round, for the record
}

// record is what a run leaves in outDir: the result with the host it was
// taken on.
type record struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	Result   result   `json:"result"`
	// RoundMs is every timed round's time, in order: the distribution the
	// gated minimum was taken from.
	RoundMs []float64 `json:"round_ms"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 42, "seed for weights, inputs and boundary tensors")
		seconds = flag.Float64("seconds", runSeconds, "timed length of the run")
		trace   = flag.Int("trace", 0, "1: traced run that reports the per-layer metrics instead")
		aa      = flag.Int("aa", 0, "run K alternating pairs of runs of every workload and compare the two sets against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *aa > 0 {
		if err := runAA(os.Stdout, *aa, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %g", *seconds))
	}
	d := time.Duration(*seconds * float64(time.Second))
	host := newHostInfo(*seed)

	var res result
	var err error
	if *trace != 0 {
		res, err = runTraced(w, *seed, d, &host)
	} else {
		res, err = runPlain(w, *seed, d, &host)
	}
	if err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, w, *trace != 0, host, res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runPlain is the untraced run that produces the end-to-end metrics.
func runPlain(w workload, seed int64, d time.Duration, host *hostInfo) (result, error) {
	var inst *instance
	var setupSecs []float64
	for len(setupSecs) < setUps {
		if inst != nil {
			inst.close()
		}
		var secs float64
		var err error
		if inst, secs, err = setUp(w, seed, false); err != nil {
			return result{}, err
		}
		setupSecs = append(setupSecs, secs)
	}
	defer inst.close()
	ph, err := runPhase(inst, d, nil)
	if err != nil {
		return result{}, err
	}
	host.Rounds, host.TimedSeconds = len(ph.roundMs), ph.seconds
	return result{
		Correct:   ph.failed == 0,
		Attempted: ph.jobs,
		Failed:    ph.failed,
		Metrics:   valuesFor(endToEnd, endToEndMetrics(ph, setupSecs, inst.jobs)),
		roundMs:   ph.roundMs,
	}, nil
}

// report prints every metric by name with its unit, then the host, then the
// result as the last line, and leaves the full record in outDir.
func report(out io.Writer, w workload, traced bool, host hostInfo, res result) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(out, "workload %s (%s)\n", w.name, w.why)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-32s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(out, "  %-32s %16d of %d jobs\n", "failed", res.Failed, res.Attempted)
	hostLine, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "host %s\n", hostLine)

	rec, err := json.MarshalIndent(record{Workload: w.name, Why: w.why, Traced: traced, Host: host, Result: res, RoundMs: res.roundMs}, "", "  ")
	if err != nil {
		return err
	}
	file := "result-" + w.name + ".json"
	if traced {
		file = "result-" + w.name + "-traced.json"
	}
	if err := writeOut(file, rec); err != nil {
		return err
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// writeOut writes one file into outDir.
func writeOut(name string, data []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}
