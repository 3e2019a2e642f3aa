package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// runAA measures the benchmark against itself: k pairs of plain runs of
// every workload on the current tree, the two sets A and B alternating which
// goes first, every run on a seed of its own. For each workload and
// end-to-end metric it prints both medians and quartiles, the spread of each
// set (interquartile range over median) and how much worse B's median is
// than A's, and marks the row FAIL when a spread or the difference exceeds
// the metric's bound. Two sets of the same code that do not agree within
// the bounds mean the bounds cannot resolve a real change either.
func runAA(out io.Writer, k int, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2]map[string]map[string][]float64{{}, {}} // set -> workload -> metric -> values
	for pair := 0; pair < k; pair++ {
		for turn := 0; turn < 2; turn++ {
			set := (pair + turn) % 2
			for _, w := range workloads {
				seed := int64(1000*(set+1) + pair)
				res, err := runSelf(self, w.name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if sets[set][w.name] == nil {
					sets[set][w.name] = map[string][]float64{}
				}
				for name, v := range res.Metrics {
					sets[set][w.name][name] = append(sets[set][w.name][name], v.Value)
				}
				fmt.Fprintf(out, "pair %d set %c %-18s seed %d: %d jobs, %d failed\n",
					pair+1, 'A'+set, w.name, seed, res.Attempted, res.Failed)
			}
		}
	}

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA q1\tA q3\tA spread\tB median\tB q1\tB q3\tB spread\tB worse by\tbound\t\t")
	failures := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w.name][d.Name], sets[1][w.name][d.Name]
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			am, bm := median(a), median(b)
			as, bs := (aq3-aq1)/am, (bq3-bq1)/bm
			worse := (bm - am) / am
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			// setup_s is held to its bound on the medians only.
			if math.Abs(worse) > d.Bound || (d.Name != "setup_s" && math.Max(as, bs) > d.Bound) {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.2f%%\t%.6g\t%.6g\t%.6g\t%.2f%%\t%+.2f%%\t%.0f%%\t%s\t\n",
				w.name, d.Name, am, aq1, aq3, 100*as, bm, bq1, bq3, 100*bs, 100*worse, 100*d.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("A/A: %d of %d workload x metric rows outside their bound", failures, len(workloads)*len(endToEnd))
	}
	fmt.Fprintf(out, "A/A: all %d workload x metric rows within their bounds\n", len(workloads)*len(endToEnd))
	return nil
}

// runSelf runs one plain run of this binary and parses the result line.
func runSelf(self, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(self, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
