package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dnnjps/internal/experiments"
)

func testEnv() experiments.Env {
	env := experiments.DefaultEnv()
	env.NJobs = 10 // keep CLI tests quick
	return env
}

func TestRunEveryExperimentID(t *testing.T) {
	env := testEnv()
	for _, id := range modeledIDs {
		if id == "11" {
			// Fig. 11's exhaustive baseline takes a second even at this
			// n, and TestModeledFiguresFrozen runs it at this same env.
			continue
		}
		tables, err := run(env, id, "alexnet", "", "", "")
		if err != nil {
			t.Fatalf("run(%s): %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("run(%s): no tables", id)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Errorf("run(%s): empty table %q", id, tb.Title)
			}
		}
	}
}

func TestRunFig13Small(t *testing.T) {
	env := testEnv()
	// Fig. 13 uses a fixed full sweep; just confirm it runs and tags
	// the benefit range.
	tables, err := run(env, "13", "alexnet", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables", len(tables))
	}
	if !strings.Contains(tables[0].Title, "benefit range") {
		t.Errorf("title missing benefit range: %q", tables[0].Title)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := run(testEnv(), "99", "alexnet", "", "", ""); err == nil {
		t.Error("unknown id must error")
	}
}

// An unknown -model is an error from every experiment id, modeled or
// live, never a panic.
func TestRunUnknownModel(t *testing.T) {
	for _, id := range slices.Concat(modeledIDs, liveIDs) {
		if _, err := run(testEnv(), id, "nosuch", "", "", ""); err == nil {
			t.Errorf("run(%s) with an unknown model must error", id)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	env := testEnv()
	tables, err := run(env, "4", "alexnet", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeCSV(dir, tables[0]); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*.csv"))
	if len(matches) != 1 {
		t.Fatalf("csv files = %v", matches)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Layer,Block") {
		t.Errorf("csv missing headers: %s", data)
	}
}

var updateFigs = flag.Bool("update", false, "rewrite testdata/figs from the current planners")

// wallClockColumns are the table columns that print a time.Since
// reading; every other cell of a modeled figure is a pure function of
// the planners.
var wallClockColumns = []string{"JPSPlanTime", "BFPlanTime", "Plan(ms)", "Overhead ratio", "Plan(all)", "Plan(pareto)"}

// TestModeledFiguresFrozen holds every modeled figure byte-identical:
// each id's rendered tables, wall-clock columns blanked by header name,
// must equal testdata/figs/<id>.txt. A planner refactor leaves those
// files alone; a change that means to move a figure regenerates them
// with `go test ./cmd/jpsbench -run TestModeledFiguresFrozen -update`
// and says so in its commit.
func TestModeledFiguresFrozen(t *testing.T) {
	small := testEnv() // 11 and ablations take seconds at the default n
	for _, id := range modeledIDs {
		env := experiments.DefaultEnv()
		if id == "11" || id == "ablations" {
			env = small
		}
		tables, err := run(env, id, "alexnet", "", "", "")
		if err != nil {
			t.Fatalf("run(%s): %v", id, err)
		}
		var got strings.Builder
		for _, tb := range tables {
			for col, h := range tb.Headers {
				if slices.Contains(wallClockColumns, h) {
					for _, row := range tb.Rows {
						row[col] = "-"
					}
				}
			}
			got.WriteString(tb.String())
			got.WriteByte('\n')
		}
		golden := filepath.Join("testdata", "figs", id+".txt")
		if *updateFigs {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("-fig %s moved:\n--- got\n%s--- want\n%s", id, got.String(), want)
		}
	}
}
