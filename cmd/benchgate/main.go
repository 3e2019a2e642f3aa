// Command benchgate is the repo's bench gate. It runs the benchmark
// families whose legs are compared to each other within one run — so
// the verdict does not depend on how fast or how loaded the host is —
// holds each numerator/denominator ratio to its bound, and appends the
// run to BENCH_history.jsonl: one JSON line with the host, the commit,
// the ratios and the raw rows (the rows are a record, nothing gates
// them). Absolute times and allocation counts have other owners:
// benchmark/ measures the first under alternating parent/change pairs,
// the Test*Allocs tests pin the second.
//
// Run it from the module root, as scripts/check.sh does:
//
//	go run ./cmd/benchgate
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runs are the `go test -bench` invocations behind the rules. The
// compute-bound engine legs repeat three times and parseBench keeps the
// fastest; the runner legs are paced by simulated-link sleeps and read
// within ±2 % of each other once. A wire decode takes microseconds, so
// BenchmarkReadTensor runs 3000 decodes and 3000 copies, alternating in
// 15 pairs, once, on one P (see its rule); a sequencer call or a chain
// plan at n=100 a fraction of a millisecond, so their legs run 100,
// three times; a line plan takes microseconds and a JPS+ plan half a
// millisecond, so theirs run 300, three times. An empty cpu leaves -cpu
// unset: GOMAXPROCS procs.
var runs = []struct{ pkg, bench, benchtime, count, cpu string }{
	{"./internal/engine/", "^Benchmark(SgemmCrossover|BatchedForward)$", "3x", "3", ""},
	{"./internal/runtime/", "^BenchmarkRunnerAdaptive$", "3x", "1", ""},
	{"./internal/runtime/", "^BenchmarkReadTensor$", "3000x", "1", "1"},
	{"./internal/flowshop/", "^BenchmarkScheduleM$", "100x", "3", ""},
	{"./internal/core/", "^BenchmarkChainPlanning$", "100x", "3", ""},
	{"./internal/core/", "^BenchmarkLinePlanning$", "300x", "3", ""},
}

// rule bounds one within-run ratio: num's unit column over den's. A "*"
// in num matches any text and den's "*" takes the same, so one rule
// covers every width or suffix the benchmark has legs for. Without a
// den, num's unit column is the ratio itself, which its benchmark took
// from two legs it timed alternately. A leg a rule needs and the output
// lacks fails the gate.
type rule struct {
	num, den string
	unit     string
	bound    float64 // fail when num/den (num alone, without a den) exceeds it
	minStar  int     // gate only the legs whose "*" is a number >= minStar
	skip     string  // non-empty: why the output may hold no num or no den leg at all, which then skips the rule
}

var rules = []rule{
	// The FMA tile against the streaming panel loop. preferAsm has no
	// threshold past the tile guard; this ratio is what licenses that
	// (≈ 0.11 on the reference host).
	{num: "BenchmarkSgemmCrossover/asm/n=*", den: "BenchmarkSgemmCrossover/panel/n=*", unit: "ns/op", bound: 0.9, minStar: 128,
		skip: "the asm legs run only with AVX2+FMA and without noasm"},
	// The engine's GEMM against the same call pinned to the AVX2 6x16
	// tile, where /proc/cpuinfo lists avx512f: the median of 15
	// alternating pairs at each width. A probe or dispatch that silently
	// leaves the engine on the narrow tile reads ≈ 1.0 at every width
	// and fails. With the two tiles timed best of three in separate
	// legs, one after the other, the rule failed 9 of the 32 gate runs
	// recorded with it, on unchanged tiles (0.92–1.04 at one or two
	// widths), and one binary read 0.52–1.06. Paired, 20 consecutive
	// gate runs read medians of 0.66–0.80 (single pairs 0.20–3.16), and
	// with the AVX-512 probe forced off in a scratch tree 10 of 10 runs
	// failed it at every width (0.91–1.09).
	{num: "BenchmarkSgemmCrossover/asm-avx2/n=*", unit: "asm/avx2", bound: 0.9, minStar: 128,
		skip: "the paired legs run only with the asm path live and avx512f in /proc/cpuinfo"},
	// Filling a batch must amortize packing across images, on the dense
	// head (≈ 0.11–0.17), on AlexNet's dense tail (≈ 0.08–0.10) and on
	// the conv suffix (≈ 0.35–0.45, which is its fc6–fc8 again: the conv
	// span alone, the convspan legs, is reported and not gated).
	{num: "BenchmarkBatchedForward/N=32/*", den: "BenchmarkBatchedForward/N=1/*", unit: "ns/inference", bound: 0.6},
	// What a default server's tail groups rest on: eight jobs through
	// fc6–fc8 together stream the weights once, in row order. Ten
	// alternating gate runs: 0.10–0.15 with one deep K panel, 0.15–0.24
	// (nine of ten above 0.16) with asmKC panels. The yardstick is one
	// job on the pure-Go route, the matrix-vector loop: a lone job rides
	// the same tile as the group, and a slower tile would slow both legs.
	{num: "BenchmarkBatchedForward/N=8/densetail", den: "BenchmarkBatchedForward/N=1/densetail/panel", unit: "ns/inference", bound: 0.16},
	// On a healthy link no change point fires, so the estimator costs
	// its bookkeeping and nothing else (≈ 1.0).
	{num: "BenchmarkRunnerAdaptive/adaptive", den: "BenchmarkRunnerAdaptive/static", unit: "ns/job", bound: 1.15},
	// A 64 KiB float32 frame decoded into a fresh tensor against the
	// same bytes copied into a slice allocated once: the median of 15
	// alternating pairs. A payload read straight into its tensor adds
	// the CRC and the allocation to the copy: 9.2–13.1 in eleven gate
	// runs. Converting it a float at a time, as the codec once did, read
	// 22.3–29.9 in ten runs between them. The decode allocates 64 KiB a
	// call, the copy nothing. At two procs the decode swung with the
	// shared host's state — 37–59 µs for minutes at a time against
	// 18–26, the copy 2 µs throughout, likely the collector's worker
	// waiting for the second vCPU — and failed seven gate runs in a row
	// with the legs timed one after the other, and eight of ten with
	// them alternated (18.7–29.5×), on unchanged code. On one P, in the
	// same minutes, it read 8–10×, and the per-float decode restored in
	// a scratch copy 27–31×.
	{num: "BenchmarkReadTensor", unit: "decode/copy", bound: 17},
	// The m-machine sequencer on JPSChain's two-kind traffic, 4× the
	// jobs: NEH and the swap descent are both O(n²·m) there, so ≈ 16×
	// in theory, 12–15× measured. A sequencer that goes cubic on that
	// traffic reads 40–54×: 54× with the descent re-walking every
	// trial, 53× for the direct form BenchmarkScheduleM's comment cites.
	{num: "BenchmarkScheduleM/n=400", den: "BenchmarkScheduleM/n=100", unit: "ns/op", bound: 24},
	// A 3-device JPSChain plan at n=100 against one two-kind ScheduleM
	// call of the same size: the plan's load bounds leave one of its
	// three two-kind splits to sequence, and on that split CDS meets the
	// bound, so flowshop.TwoKindScheduleM prices it from its two kinds
	// and no ScheduleM call is made: 0.035–0.116 in ten readings of
	// both legs, fastest of three each, against 0.097–0.188 in the same
	// sitting for the plan that built the split and called ScheduleM,
	// which stopped at CDS (0.09–0.24 in ten gate runs then). A plan
	// whose split falls back to NEH and the descent read 1.17–1.21 in a
	// scratch copy with that stop removed, and the plan before the stop
	// 0.73–1.03 in one sitting (0.91–1.64 when this rule came in at
	// 1.75).
	{num: "BenchmarkChainPlanning/kway-n100", den: "BenchmarkScheduleM/n=100", unit: "ns/op", bound: 0.5},
	// JPS+ at n=100 against JPS on the same AlexNet curve: JPS+ prices
	// every pair of Pareto cuts at every split, 2 086 candidates where
	// JPS prices at most five, each in O(n) with no allocation, and
	// builds one plan. Ten gate-length readings: 42.6–101.1 (JPS+
	// 0.43–0.59 ms; JPS 4.8–12.1 µs, most of it allocation, so the
	// spread is the denominator's). A planner that builds and sorts
	// every candidate read 610–1 008 on the same host.
	{num: "BenchmarkLinePlanning/jpsplus-n100", den: "BenchmarkLinePlanning/jps-n100", unit: "ns/op", bound: 200},
}

// row is one benchmark result, named as go test prints it less the
// -GOMAXPROCS suffix, so a history reads the same from any host.
type row struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"` // value by unit: ns/op, ns/job, MAC/ns, allocs/op, ...
}

// ratio is one evaluated rule leg.
type ratio struct {
	Num   string  `json:"num"`
	Den   string  `json:"den,omitempty"` // empty: the benchmark reported the ratio itself
	Unit  string  `json:"unit"`
	Ratio float64 `json:"ratio"`
	Bound float64 `json:"bound"`
	// Min and Max are the least and greatest per-pair ratio, where the
	// benchmark timed its legs in pairs and reported them ("min-" and
	// "max-" before the unit); Ratio is then the pairs' median.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// historyFile is where every run is appended, relative to the module
// root the gate is run from.
const historyFile = "BENCH_history.jsonl"

// record is one line of historyFile.
type record struct {
	DateUTC    string  `json:"date_utc"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoLines    int     `json:"go_lines"`
	Pass       bool    `json:"pass"`
	Ratios     []ratio `json:"ratios"`
	Rows       []row   `json:"rows"`
}

func main() {
	var out strings.Builder
	for _, r := range runs {
		args := []string{"test", "-run", "^$", "-bench", r.bench, "-benchmem", "-benchtime", r.benchtime, "-count", r.count}
		if r.cpu != "" {
			args = append(args, "-cpu", r.cpu)
		}
		cmd := exec.Command("go", append(args, r.pkg)...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", strings.Join(cmd.Args, " "), err)
			os.Exit(1)
		}
	}
	cpu, rows := parseBench(out.String())
	ratios, msgs, pass := evaluate(rules, rows)
	for _, m := range msgs {
		fmt.Println("benchgate:", m)
	}
	rec := stamp()
	rec.CPUModel, rec.Pass, rec.Ratios, rec.Rows = cpu, pass, ratios, rows
	if err := appendHistory(historyFile, rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	if !pass {
		os.Exit(1)
	}
}

// parseBench reads `go test -bench` output: the CPU model of its "cpu:"
// line ("unknown" without one) and the result rows. Repetitions of one
// name (-count) collapse to the one with the least ns/op: what a shared
// host adds to a run is only ever time, so the fastest is the least
// disturbed.
func parseBench(out string) (cpu string, rows []row) {
	cpu = "unknown"
	index := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		if model, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = model
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		r := row{Name: f[0], Iters: iters, Metrics: map[string]float64{}}
		if i := strings.LastIndexByte(r.Name, '-'); i > 0 {
			if _, err := strconv.Atoi(r.Name[i+1:]); err == nil {
				r.Name = r.Name[:i]
			}
		}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				r.Metrics[f[i+1]] = v
			}
		}
		if i, seen := index[r.Name]; !seen {
			index[r.Name] = len(rows)
			rows = append(rows, r)
		} else if r.Metrics["ns/op"] < rows[i].Metrics["ns/op"] {
			rows[i] = r
		}
	}
	return cpu, rows
}

// matchStar reports whether name fits pattern and what its "*" stood for.
func matchStar(pattern, name string) (star string, ok bool) {
	pre, post, wild := strings.Cut(pattern, "*")
	if !wild {
		return "", name == pattern
	}
	if len(name) < len(pre)+len(post) || !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, post) {
		return "", false
	}
	return name[len(pre) : len(name)-len(post)], true
}

// evaluate applies the rules to the rows: the ratios it could compute,
// one message per verdict, and whether every rule held.
func evaluate(rules []rule, rows []row) (ratios []ratio, msgs []string, pass bool) {
	byName := map[string]row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	pass = true
	fail := func(format string, a ...any) {
		pass = false
		msgs = append(msgs, "FAIL "+fmt.Sprintf(format, a...))
	}
	for _, ru := range rules {
		if ru.skip != "" && !(hasLeg(rows, ru.num) && (ru.den == "" || hasLeg(rows, ru.den))) {
			msgs = append(msgs, fmt.Sprintf("skip %s over %s: no such legs (%s)", ru.num, ru.den, ru.skip))
			continue
		}
		matched, gated := 0, 0
		for _, r := range rows {
			star, ok := matchStar(ru.num, r.Name)
			if !ok {
				continue
			}
			matched++
			if n, err := strconv.Atoi(star); ru.minStar > 0 && (err != nil || n < ru.minStar) {
				continue
			}
			gated++
			nv, nok := r.Metrics[ru.unit]
			q := ratio{Num: r.Name, Unit: ru.unit, Ratio: nv, Bound: ru.bound, Min: r.Metrics["min-"+ru.unit], Max: r.Metrics["max-"+ru.unit]}
			named := r.Name + " " + ru.unit
			detail := named
			if ru.den != "" {
				q.Den = strings.Replace(ru.den, "*", star, 1)
				dv, dok := byName[q.Den].Metrics[ru.unit]
				if !nok || !dok || dv <= 0 {
					fail("%s over %s: the bench output lacks %s for one of them", r.Name, q.Den, ru.unit)
					continue
				}
				q.Ratio = nv / dv
				named = r.Name + " over " + q.Den
				detail = fmt.Sprintf("%s %.0f %s over %s %.0f", r.Name, nv, ru.unit, q.Den, dv)
			} else if !nok {
				fail("%s: the bench output lacks %s", r.Name, ru.unit)
				continue
			}
			ratios = append(ratios, q)
			if q.Ratio > q.Bound {
				fail("%s = %.2fx > %.2fx", detail, q.Ratio, q.Bound)
			} else {
				msgs = append(msgs, fmt.Sprintf("ok %s = %.2fx (bound %.2fx)", named, q.Ratio, q.Bound))
			}
		}
		if gated == 0 {
			fail("%s: %d legs in the bench output, none to gate", ru.num, matched)
		}
	}
	return ratios, msgs, pass
}

// hasLeg reports whether any row fits pattern.
func hasLeg(rows []row, pattern string) bool {
	for _, r := range rows {
		if _, ok := matchStar(pattern, r.Name); ok {
			return true
		}
	}
	return false
}

// appendHistory adds rec to the file at path as one JSON line.
func appendHistory(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stamp starts a record with when and on what it was taken; the CPU
// model comes from the bench output.
func stamp() record {
	return record{
		DateUTC:    time.Now().UTC().Format(time.RFC3339),
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoLines:    goLines(),
	}
}

// goLines is the size ROADMAP's aim 2 follows from PR to PR: lines
// (newlines, as `wc -l` counts them) of non-test Go and assembly under
// internal, cmd and examples, relative to the module root the gate is
// run from. A record, like the rows: no rule reads it, so what cannot
// be walked or read counts nothing and fails nothing.
func goLines() int {
	n := 0
	for _, dir := range []string{"internal", "cmd", "examples"} {
		_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			ext := filepath.Ext(path)
			if err != nil || d.IsDir() || ext != ".go" && ext != ".s" || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, _ := os.ReadFile(path)
			n += bytes.Count(src, []byte("\n"))
			return nil
		})
	}
	return n
}

// commit names the checked-out revision, "-dirty" appended when a
// tracked file other than the history itself differs from it — every
// run appends there, which says nothing about the code that was
// measured; "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	diff, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no",
		"--", ".", ":(exclude)"+historyFile).Output()
	if err != nil || len(diff) > 0 {
		rev += "-dirty"
	}
	return rev
}
