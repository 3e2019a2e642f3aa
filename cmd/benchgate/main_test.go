package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// today is `go test -bench` output as the gate's three runs print it on
// the 2-proc reference host, which has AVX-512 (so the avx2 legs run),
// cut down to the legs the rules read plus one ungated neighbour of
// each family. asm/n=128 and the ReadTensor legs keep their three
// -count repetitions.
const today = `goos: linux
goarch: amd64
pkg: dnnjps/internal/engine
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBatchedForward/N=1/densehead-2         	       3	    413995 ns/op	    413654 ns/inference	    4384 B/op	      10 allocs/op
BenchmarkBatchedForward/N=16/densehead-2        	       3	   1099660 ns/op	     68707 ns/inference	   65600 B/op	       4 allocs/op
BenchmarkBatchedForward/N=32/densehead-2        	       3	   2201329 ns/op	     68779 ns/inference	  131136 B/op	       4 allocs/op
BenchmarkBatchedForward/N=1/convsuffix-2        	       3	  27026359 ns/op	  27025701 ns/inference	    9813 B/op	      57 allocs/op
BenchmarkBatchedForward/N=32/convsuffix-2       	       3	 297445723 ns/op	   9295156 ns/inference	  132858 B/op	      35 allocs/op
BenchmarkBatchedForward/N=1/densetail-2         	       3	  20708210 ns/op	  20707377 ns/inference	    4245 B/op	       5 allocs/op
BenchmarkBatchedForward/N=8/densetail-2         	       3	  25850809 ns/op	   3231277 ns/inference	   32874 B/op	       7 allocs/op
BenchmarkBatchedForward/N=32/densetail-2        	       3	  74697307 ns/op	   2334271 ns/inference	  131178 B/op	       7 allocs/op
BenchmarkBatchedForward/N=1/densetail/panel-2   	       3	  24678858 ns/op	  24678382 ns/inference	    4266 B/op	       8 allocs/op
BenchmarkBatchedForward/N=1/convspan-2          	       3	  16591615 ns/op	  16590872 ns/inference	   43320 B/op	      39 allocs/op
BenchmarkBatchedForward/N=8/convspan-2          	       3	 122121071 ns/op	  15265040 ns/inference	  297416 B/op	      45 allocs/op
BenchmarkSgemmCrossover/panel/n=64-2            	       3	   5870401 ns/op	         3.216 MAC/ns	       0 B/op	       0 allocs/op
BenchmarkSgemmCrossover/asm/n=64-2              	       3	    369808 ns/op	        51.06 MAC/ns	       0 B/op	       0 allocs/op
BenchmarkSgemmCrossover/avx2/n=64-2             	       3	    554825 ns/op	        34.05 MAC/ns	       0 B/op	       0 allocs/op
BenchmarkSgemmCrossover/panel/n=128-2           	       3	  10670189 ns/op	         3.538 MAC/ns	       0 B/op	       0 allocs/op
BenchmarkSgemmCrossover/asm/n=128-2             	       3	    736066 ns/op	        51.31 MAC/ns	       0 B/op	       0 allocs/op
BenchmarkSgemmCrossover/asm/n=128-2             	       3	    691620 ns/op	        54.60 MAC/ns	       0 B/op	       0 allocs/op
BenchmarkSgemmCrossover/asm/n=128-2             	       3	    762435 ns/op	        49.54 MAC/ns	       0 B/op	       0 allocs/op
BenchmarkSgemmCrossover/avx2/n=128-2            	       3	   1100481 ns/op	        34.31 MAC/ns	       0 B/op	       0 allocs/op
BenchmarkSgemmCrossover/panel/n=1024-2          	       3	  98485173 ns/op	         3.066 MAC/ns	       0 B/op	       0 allocs/op
BenchmarkSgemmCrossover/asm/n=1024-2            	       3	   7246325 ns/op	        41.68 MAC/ns	       0 B/op	       0 allocs/op
BenchmarkSgemmCrossover/avx2/n=1024-2           	       3	  13332165 ns/op	        22.65 MAC/ns	       0 B/op	       0 allocs/op
PASS
ok  	dnnjps/internal/engine	9.928s
goos: linux
goarch: amd64
pkg: dnnjps/internal/runtime
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRunnerAdaptive/static-2       	       3	1845568787 ns/op	 230695967 ns/job	 3637346 B/op	     621 allocs/op
BenchmarkRunnerAdaptive/adaptive-2     	       3	1848666296 ns/op	 231083170 ns/job	 3986922 B/op	     621 allocs/op
PASS
ok  	dnnjps/internal/runtime	16.636s
goos: linux
goarch: amd64
pkg: dnnjps/internal/runtime
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkReadTensor/decode-2         	    2000	     13576 ns/op	4828.42 MB/s	   65631 B/op	       3 allocs/op
BenchmarkReadTensor/decode-2         	    2000	     13707 ns/op	4782.12 MB/s	   65631 B/op	       3 allocs/op
BenchmarkReadTensor/decode-2         	    2000	     13259 ns/op	4943.61 MB/s	   65631 B/op	       3 allocs/op
BenchmarkReadTensor/copy-2           	    2000	      1613 ns/op	40641.85 MB/s	       0 B/op	       0 allocs/op
BenchmarkReadTensor/copy-2           	    2000	      1848 ns/op	35465.77 MB/s	       0 B/op	       0 allocs/op
BenchmarkReadTensor/copy-2           	    2000	      1631 ns/op	40194.80 MB/s	       0 B/op	       0 allocs/op
PASS
ok  	dnnjps/internal/runtime	0.101s
`

func TestParseBench(t *testing.T) {
	const out = `cpu: some host
BenchmarkPlain-2   	       3	       300 ns/op	      16 B/op	       1 allocs/op
BenchmarkPlain-2   	       3	       100 ns/op	      24 B/op	       2 allocs/op
BenchmarkPlain-2   	       3	       200 ns/op	      32 B/op	       3 allocs/op
BenchmarkOneProc/n=128 	       5	       700 ns/op
BenchmarkTail/solo-16 	       3	      9000 ns/op	       0 B/op	       0 allocs/op	      45.5 ns/job
BenchmarkHead/int8-4 	       3	      12.5 ns/inference	      8000 ns/op
--- BENCH: BenchmarkPlain-2
BenchmarkBroken-2   	       x	       100 ns/op
PASS
ok  	dnnjps/internal/engine	1.0s
`
	want := []row{
		// -count repetitions: the whole line of the fastest one.
		{Name: "BenchmarkPlain", Iters: 3, Metrics: map[string]float64{"ns/op": 100, "B/op": 24, "allocs/op": 2}},
		// GOMAXPROCS=1 prints no suffix, and "n=128" is not one.
		{Name: "BenchmarkOneProc/n=128", Iters: 5, Metrics: map[string]float64{"ns/op": 700}},
		// A custom unit is read wherever ReportMetric's column lands.
		{Name: "BenchmarkTail/solo", Iters: 3, Metrics: map[string]float64{"ns/op": 9000, "B/op": 0, "allocs/op": 0, "ns/job": 45.5}},
		{Name: "BenchmarkHead/int8", Iters: 3, Metrics: map[string]float64{"ns/inference": 12.5, "ns/op": 8000}},
	}
	cpu, got := parseBench(out)
	if cpu != "some host" || !reflect.DeepEqual(got, want) {
		t.Errorf("parseBench: cpu %q, want \"some host\"; rows\n got %+v\nwant %+v", cpu, got, want)
	}
	if cpu, rows := parseBench("PASS\n"); cpu != "unknown" || rows != nil {
		t.Errorf("no cpu line, no rows: got %q and %+v", cpu, rows)
	}
}

// dropLines removes every line of text that contains substr.
func dropLines(text, substr string) string {
	var keep []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, substr) {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func TestEvaluate(t *testing.T) {
	// swap replaces one measured value of today's output.
	swap := func(old, new string) string {
		if !strings.Contains(today, old) {
			t.Fatalf("canned output has no %q", old)
		}
		return strings.Replace(today, old, new, 1)
	}
	cases := []struct {
		name   string
		out    string
		pass   bool
		ratios int
		msg    string // a message that must be printed
	}{
		{"today's ratios", today, true, 10, "ok BenchmarkRunnerAdaptive/adaptive over BenchmarkRunnerAdaptive/static = 1.00x"},
		// 691620 is the fastest of three asm/n=128 repetitions; the gate
		// reads it, not the 736066 printed first: 0.628, not 0.669.
		{"repetitions collapse before the ratio", today, true, 10, "BenchmarkSgemmCrossover/asm/n=128 over BenchmarkSgemmCrossover/avx2/n=128 = 0.63x"},

		// Each bound from both sides, one leg moved to just under and just
		// over it: 0.9 twice, 0.6 twice, 0.16, 1.15, 17.
		{"asm tile at 0.89x of the panel loop", swap("98485173 ns/op", "8142000 ns/op"), true, 10, "panel/n=1024 = 0.89x"},
		{"asm tile at 0.91x", swap("98485173 ns/op", "7963000 ns/op"), false, 10, "FAIL BenchmarkSgemmCrossover/asm/n=1024 7246325 ns/op over BenchmarkSgemmCrossover/panel/n=1024"},
		{"AVX-512 tile at 0.89x of the AVX2 tile", swap("13332165 ns/op", "8142000 ns/op"), true, 10, "avx2/n=1024 = 0.89x"},
		{"AVX-512 tile at 0.91x: running narrow", swap("13332165 ns/op", "7963000 ns/op"), false, 10, "FAIL BenchmarkSgemmCrossover/asm/n=1024 7246325 ns/op over BenchmarkSgemmCrossover/avx2/n=1024"},
		{"a width under 128 is not gated", swap("369808 ns/op", "6000000 ns/op"), true, 10, ""},
		{"conv suffix at 0.59x of N=1", swap("9295156 ns/inference", "16000000 ns/inference"), true, 10, "convsuffix = 0.59x"},
		{"conv suffix at 0.63x", swap("9295156 ns/inference", "17000000 ns/inference"), false, 10, "FAIL BenchmarkBatchedForward/N=32/convsuffix"},
		{"dense head at 0.58x of N=1", swap("68779 ns/inference", "240000 ns/inference"), true, 10, "densehead = 0.58x"},
		{"dense head at 0.63x", swap("68779 ns/inference", "260000 ns/inference"), false, 10, "FAIL BenchmarkBatchedForward/N=32/densehead"},
		{"dense tail of eight at 0.15x of one job on the pure-Go route", swap("3231277 ns/inference", "3820000 ns/inference"), true, 10, "N=1/densetail/panel = 0.15x"},
		{"dense tail of eight at 0.17x", swap("3231277 ns/inference", "4100000 ns/inference"), false, 10, "FAIL BenchmarkBatchedForward/N=8/densetail"},
		{"the conv span is reported, not gated", swap("15265040 ns/inference", "99000000 ns/inference"), true, 10, ""},
		{"estimator at 1.14x of the static runner", swap("231083170 ns/job", "263000000 ns/job"), true, 10, "static = 1.14x"},
		{"estimator at 1.17x", swap("231083170 ns/job", "270000000 ns/job"), false, 10, "FAIL BenchmarkRunnerAdaptive/adaptive"},
		// The fastest decode (13259) over the fastest copy, which moves.
		{"wire decode at 16.89x of the copy", swap("      1613 ns/op", "       785 ns/op"), true, 10, "BenchmarkReadTensor/copy = 16.89x"},
		{"wire decode at 17.11x: the payload is converted again", swap("      1613 ns/op", "       775 ns/op"), false, 10, "FAIL BenchmarkReadTensor/decode 13259 ns/op over BenchmarkReadTensor/copy 775"},

		{"no asm legs: both asm rules skip", dropLines(today, "SgemmCrossover/asm/"), true, 6, "skip BenchmarkSgemmCrossover/asm/n=* over BenchmarkSgemmCrossover/panel/n=*"},
		{"no avx2 legs (no AVX-512): that rule skips", dropLines(today, "SgemmCrossover/avx2/"), true, 8, "skip BenchmarkSgemmCrossover/asm/n=* over BenchmarkSgemmCrossover/avx2/n=*"},
		{"asm legs, none at a gated width", dropLines(dropLines(today, "asm/n=128"), "asm/n=1024"), false, 6, "FAIL BenchmarkSgemmCrossover/asm/n=*"},
		{"asm leg without its panel leg", dropLines(today, "panel/n=1024"), false, 9, "FAIL BenchmarkSgemmCrossover/asm/n=1024 over BenchmarkSgemmCrossover/panel/n=1024"},
		{"asm leg without its avx2 leg", dropLines(today, "avx2/n=1024"), false, 9, "FAIL BenchmarkSgemmCrossover/asm/n=1024 over BenchmarkSgemmCrossover/avx2/n=1024"},
		{"N=8/densetail missing", dropLines(today, "N=8/densetail"), false, 9, "FAIL BenchmarkBatchedForward/N=8/densetail"},
		{"pure-Go dense tail missing", dropLines(today, "densetail/panel"), false, 9, "FAIL BenchmarkBatchedForward/N=8/densetail over BenchmarkBatchedForward/N=1/densetail/panel: the bench output lacks"},
		{"RunnerAdaptive did not run", dropLines(today, "RunnerAdaptive"), false, 9, "FAIL BenchmarkRunnerAdaptive/adaptive"},
		{"copy leg missing", dropLines(today, "ReadTensor/copy"), false, 9, "FAIL BenchmarkReadTensor/decode over BenchmarkReadTensor/copy: the bench output lacks"},
		{"ReadTensor did not run", dropLines(today, "ReadTensor"), false, 9, "FAIL BenchmarkReadTensor/decode: 0 legs"},
		{"N=32 legs missing", dropLines(today, "N=32/"), false, 7, "FAIL BenchmarkBatchedForward/N=32/*"},
		{"custom unit column missing", strings.ReplaceAll(today, "ns/job", "ns/request"), false, 9, "lacks ns/job"},
	}
	for _, c := range cases {
		_, rows := parseBench(c.out)
		ratios, msgs, pass := evaluate(rules, rows)
		all := strings.Join(msgs, "\n")
		if pass != c.pass || len(ratios) != c.ratios || !strings.Contains(all, c.msg) {
			t.Errorf("%s: pass %v with %d ratios, want %v with %d and a message holding %q; messages:\n%s",
				c.name, pass, len(ratios), c.pass, c.ratios, c.msg, all)
		}
		if !pass && !strings.Contains(all, "FAIL") {
			t.Errorf("%s: failed without saying why:\n%s", c.name, all)
		}
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	rec := stamp()
	if _, err := time.Parse(time.RFC3339, rec.DateUTC); err != nil {
		t.Errorf("date %q: %v", rec.DateUTC, err)
	}
	if rec.Commit == "" || rec.GoVersion != runtime.Version() || rec.GOMAXPROCS < 1 {
		t.Errorf("stamp left a field empty: %+v", rec)
	}
	rec.CPUModel, rec.Rows = parseBench(today)
	if rec.CPUModel != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu model %q, want the one the bench output names", rec.CPUModel)
	}
	rec.Ratios, _, rec.Pass = evaluate(rules, rec.Rows)

	path := filepath.Join(t.TempDir(), "history.jsonl")
	for i := 0; i < 2; i++ { // the second run appends, it does not truncate
		if err := appendHistory(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines after two runs, want 2", len(lines))
	}
	for _, line := range lines {
		var got record
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, rec)
		}
	}
}

// TestCommitIgnoresOwnHistory: a run appends to the tracked history, and
// that alone must not turn the next run's stamp "-dirty"; an edit to any
// other tracked file must.
func TestCommitIgnoresOwnHistory(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git on PATH")
	}
	dir := t.TempDir()
	t.Chdir(dir)
	write := func(name, text string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git := func(args ...string) {
		t.Helper()
		args = append([]string{"-c", "user.name=t", "-c", "user.email=t@localhost"}, args...)
		if out, err := exec.Command("git", args...).CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	write("main.go", "package main\n")
	write(historyFile, "{}\n")
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "seed")

	clean := commit()
	if clean == "unknown" || strings.HasSuffix(clean, "-dirty") {
		t.Fatalf("fresh commit stamped %q", clean)
	}
	write(historyFile, "{}\n{}\n")
	if got := commit(); got != clean {
		t.Errorf("after appending to %s: %q, want %q", historyFile, got, clean)
	}
	write("main.go", "package main // edited\n")
	if got := commit(); got != clean+"-dirty" {
		t.Errorf("after editing main.go: %q, want %q", got, clean+"-dirty")
	}
}

// TestGoLinesCountsNonTestSource: newlines of *.go and *.s under the
// three source directories, relative to where the gate runs; tests,
// other files and other directories do not count.
func TestGoLinesCountsNonTestSource(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	for name, text := range map[string]string{
		"internal/a/a.go":       "package a\n\nvar X = 1\n", // 3
		"internal/a/a_amd64.s":  "TEXT ·f(SB)\nRET\n",       // 2
		"internal/a/a_test.go":  "package a\n",
		"internal/a/README.md":  "text\n",
		"cmd/tool/main.go":      "package main\n",                 // 1
		"examples/demo/main.go": "package main\nfunc main() {}\n", // 2
		"scripts/e2e.go":        "package main\n",
		"main.go":               "package root\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := goLines(); got != 8 {
		t.Errorf("goLines() = %d, want 8", got)
	}
	if got := stamp().GoLines; got != 8 {
		t.Errorf("stamp().GoLines = %d, want 8", got)
	}
}
