package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"dnnjps/internal/core"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// manifest mirrors BENCHMARK.json at the root of the repository.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []wlEntry   `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type wlEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// wantManifest is BENCHMARK.json as the driver's own tables define it.
func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wlEntry{w.name, w.why})
	}
	return m
}

func TestManifestListsExactlyWhatTheDriverEmits(t *testing.T) {
	want := wantManifest()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		text, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the driver's tables; it should read:\n%s", text)
	}
}

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name != "setup_s" && d.Bound > endToEnd[0].Bound {
			t.Errorf("metric %s: bound %v exceeds setup_s's", d.Name, d.Bound)
		}
	}
}

func TestSameSeedSameInputsAndPlans(t *testing.T) {
	shape := tensor.NewCHW(3, 8, 8)
	a, b, c := normalTensor(7, shape), normalTensor(7, shape), normalTensor(8, shape)
	if !reflect.DeepEqual(a.Data, b.Data) {
		t.Error("the same seed gave different tensors")
	}
	if reflect.DeepEqual(a.Data, c.Data) {
		t.Error("different seeds gave the same tensor")
	}

	g := models.MustBuild("alexnet")
	plan := func() *core.Plan {
		p, err := core.JPS(profile.BuildCurve(g, mobileDev, cloudDev, netsim.WiFi, tensor.Float32), jobsPerPlan)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, q := plan(), plan()
	if !reflect.DeepEqual(p.Cuts, q.Cuts) || !reflect.DeepEqual(p.Sequence, q.Sequence) || p.Makespan != q.Makespan {
		t.Error("planning the same curve twice gave different plans")
	}
	// The plan the alexnet-loopback workload is documented to execute.
	if want := []int{0, 3, 3, 3, 3, 3, 3, 3}; !reflect.DeepEqual(p.Cuts, want) {
		t.Errorf("AlexNet at Wi-Fi, n=8: cuts %v, README says %v", p.Cuts, want)
	}
}

// One round of every workload, end to end, with the oracle on.
func TestEveryWorkloadRunsARoundCorrectly(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			inst, err := w.build(1, true)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			rec := newRecorder()
			parts, failed, err := inst.round(rec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if failed != 0 {
				t.Errorf("%d of %d jobs broke the oracle", failed, inst.jobs)
			}
			if len(parts) == 0 || minOf(parts) <= 0 {
				t.Errorf("round parts took %v ms", parts)
			}
			if len(rec.snapshot()) == 0 {
				t.Error("the round recorded no span")
			}
		})
	}
}
