package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

func heteroClasses(t *testing.T, ch netsim.Channel, counts map[string]int) []JobClass {
	t.Helper()
	pi, gpu := devices()
	var out []JobClass
	for _, name := range []string{"alexnet", "mobilenetv2", "resnet18", "googlenet"} {
		n, ok := counts[name]
		if !ok {
			continue
		}
		g := models.MustBuild(name)
		out = append(out, JobClass{
			Curve: profile.BuildCurve(g, pi, gpu, ch, tensor.Float32),
			Count: n,
		})
	}
	return out
}

func TestJPSHeteroSingleClassMatchesJPS(t *testing.T) {
	classes := heteroClasses(t, netsim.FourG, map[string]int{"alexnet": 8})
	hp, err := JPSHetero(classes)
	if err != nil {
		t.Fatal(err)
	}
	jps, err := JPS(classes[0].Curve, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hp.Makespan-jps.Makespan) > 1e-9 {
		t.Errorf("single-class hetero %g != JPS %g", hp.Makespan, jps.Makespan)
	}
	if hp.TotalJobs() != 8 || hp.AvgMs() != hp.Makespan/8 {
		t.Error("accounting wrong")
	}
}

func TestJPSHeteroSplitIdenticalClasses(t *testing.T) {
	// Two classes over the same curve with counts 3+5 must schedule as
	// well as one class of 8 (same job universe).
	one := heteroClasses(t, netsim.FourG, map[string]int{"alexnet": 8})
	pi, gpu := devices()
	curve := profile.BuildCurve(models.MustBuild("alexnet"), pi, gpu, netsim.FourG, tensor.Float32)
	two := []JobClass{{Curve: curve, Count: 3}, {Curve: curve, Count: 5}}
	hpOne, err := JPSHetero(one)
	if err != nil {
		t.Fatal(err)
	}
	hpTwo, err := JPSHetero(two)
	if err != nil {
		t.Fatal(err)
	}
	// Split classes mix independently, so allow small slack; they must
	// not be wildly different.
	if hpTwo.Makespan > hpOne.Makespan*1.05 {
		t.Errorf("split classes %g much worse than merged %g", hpTwo.Makespan, hpOne.Makespan)
	}
}

func TestJPSHeteroBeatsIsolatedBaselines(t *testing.T) {
	for _, ch := range netsim.Presets() {
		classes := heteroClasses(t, ch, map[string]int{"alexnet": 6, "mobilenetv2": 6, "resnet18": 4})
		hp, err := JPSHetero(classes)
		if err != nil {
			t.Fatalf("%s: %v", ch.Name, err)
		}
		for _, base := range []struct {
			name string
			fn   func(*profile.Curve, int) (*Plan, error)
		}{{"LO", LO}, {"CO", CO}, {"PO", PO}} {
			bp, err := HeteroBaseline(base.name, base.fn, classes)
			if err != nil {
				t.Fatal(err)
			}
			if hp.Makespan > bp.Makespan*1.02 {
				t.Errorf("%s: JPS-hetero %.1f worse than %s %.1f",
					ch.Name, hp.Makespan, base.name, bp.Makespan)
			}
		}
	}
}

func TestJPSHeteroSequenceCoversWorkload(t *testing.T) {
	classes := heteroClasses(t, netsim.WiFi, map[string]int{"alexnet": 5, "googlenet": 3})
	hp, err := JPSHetero(classes)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for _, ref := range hp.Sequence {
		k := [2]int{ref.Class, ref.Job}
		if seen[k] {
			t.Fatalf("duplicate job %v", k)
		}
		seen[k] = true
		if ref.Class < 0 || ref.Class >= len(classes) {
			t.Fatalf("bad class %d", ref.Class)
		}
		if ref.Cut < 0 || ref.Cut >= classes[ref.Class].Curve.Len() {
			t.Fatalf("bad cut %d", ref.Cut)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("sequence covers %d jobs, want 8", len(seen))
	}
}

// One validation behind all three entry points: an empty workload, a
// non-positive count and a missing curve draw the same complaint,
// whoever is asked.
func TestJPSHeteroErrors(t *testing.T) {
	curve := fig2Curve()
	for _, entry := range []struct {
		name string
		plan func([]JobClass) (*HeteroPlan, error)
	}{
		{"JPSHetero", JPSHetero},
		{"HeteroBaseline", func(cs []JobClass) (*HeteroPlan, error) { return HeteroBaseline("LO", LO, cs) }},
		{"BruteForceHetero", func(cs []JobClass) (*HeteroPlan, error) { return BruteForceHetero(cs, 0) }},
	} {
		for _, bad := range []struct {
			classes []JobClass
			want    string
		}{
			{nil, "core: " + entry.name + " needs at least one class"},
			{[]JobClass{{Curve: curve, Count: 2}, {Curve: curve, Count: 0}}, "core: class 1 (fig2) has count 0"},
			{[]JobClass{{Curve: curve, Count: -1}}, "core: class 0 (fig2) has count -1"},
			{[]JobClass{{Count: 2}}, "core: class 0 has no curve"},
			{[]JobClass{{}}, "core: class 0 has no curve"},
		} {
			if p, err := entry.plan(bad.classes); err == nil || err.Error() != bad.want {
				t.Errorf("%s(%v) = %v, %v; want error %q", entry.name, bad.classes, p, err, bad.want)
			}
		}
	}
}

func TestBruteForceHeteroValidatesJPSHetero(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		classes := []JobClass{
			{Name: "a", Curve: synthCurve(rng, 4+rng.Intn(3)), Count: 1 + rng.Intn(3)},
			{Name: "b", Curve: synthCurve(rng, 4+rng.Intn(3)), Count: 1 + rng.Intn(3)},
		}
		bf, err := BruteForceHetero(classes, 0)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := JPSHetero(classes)
		if err != nil {
			t.Fatal(err)
		}
		if hp.Makespan < bf.Makespan-1e-9 {
			t.Fatalf("trial %d: hetero JPS %g below exact optimum %g", trial, hp.Makespan, bf.Makespan)
		}
		if hp.Makespan > bf.Makespan*1.6 {
			t.Fatalf("trial %d: hetero JPS %g way off optimum %g", trial, hp.Makespan, bf.Makespan)
		}
	}
}

func TestBruteForceHeteroSpaceGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	classes := []JobClass{
		{Curve: synthCurve(rng, 12), Count: 64},
		{Curve: synthCurve(rng, 12), Count: 64},
	}
	if _, err := BruteForceHetero(classes, 1000); !errors.Is(err, ErrSearchSpaceTooLarge) {
		t.Errorf("want ErrSearchSpaceTooLarge, got %v", err)
	}
	if _, err := BruteForceHetero(nil, 0); err == nil {
		t.Error("empty workload must error")
	}
}

func TestHeteroPlanEmptyAccessors(t *testing.T) {
	p := &HeteroPlan{}
	if p.TotalJobs() != 0 || p.AvgMs() != 0 {
		t.Error("empty plan accessors")
	}
}
