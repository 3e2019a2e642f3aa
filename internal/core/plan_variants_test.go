package core

import (
	"math/rand"
	"strings"
	"testing"

	"dnnjps/internal/profile"
)

func TestJPSPlusVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		c := synthCurve(rng, 4+rng.Intn(8))
		n := 1 + rng.Intn(10)
		plus, err := JPSPlus(c, n)
		if err != nil {
			t.Fatal(err)
		}
		if plus.Method != "JPS+" {
			t.Fatalf("method = %q", plus.Method)
		}
		jps, err := JPS(c, n)
		if err != nil {
			t.Fatal(err)
		}
		// JPS+ searches a superset of JPS's candidate plans.
		if plus.Makespan > jps.Makespan+1e-9 {
			t.Fatalf("trial %d: JPS+ %g worse than JPS %g", trial, plus.Makespan, jps.Makespan)
		}
		paper, err := JPSPaperRatio(c, n)
		if err != nil {
			t.Fatal(err)
		}
		// JPS evaluates the paper's split among its candidates, so it
		// can never lose to the literal rule.
		if jps.Makespan > paper.Makespan+1e-9 {
			t.Fatalf("trial %d: JPS %g worse than paper ratio %g", trial, jps.Makespan, paper.Makespan)
		}
	}
}

func TestJPSPaperRatioFig2(t *testing.T) {
	// On the Fig. 2 example the ratio is 2 (>= 1), so the literal rule
	// and the balanced split agree: makespan 13.
	p, err := JPSPaperRatio(fig2Curve(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Makespan != 13 {
		t.Errorf("paper-ratio makespan = %g, want 13", p.Makespan)
	}
	if p.Method != "JPS-paper-ratio" {
		t.Errorf("method = %q", p.Method)
	}
	// JPSBestMix labels its own plan too, where two cuts mix and where
	// one is exact.
	for _, c := range []*profile.Curve{fig2Curve(), exactCurve()} {
		if bm, err := JPSBestMix(c, 2); err != nil || bm.Method != "JPS-bestmix" {
			t.Errorf("JPSBestMix(%s): %+v, %v; want method JPS-bestmix", c.Model, bm, err)
		}
	}
}

func TestJPSPaperRatioDegradesWhenRatioBelowOne(t *testing.T) {
	// Curve where the true ratio is ~0.19: the floor sends every job
	// to l*, which is measurably worse than the balanced split.
	c := synthCurveFixed()
	n := 40
	paper, err := JPSPaperRatio(c, n)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := JPS(c, n)
	if err != nil {
		t.Fatal(err)
	}
	if bal.Makespan >= paper.Makespan {
		t.Errorf("expected balanced (%g) to strictly beat floored ratio (%g) here",
			bal.Makespan, paper.Makespan)
	}
}

// synthCurveFixed has f(l*)-g(l*) small relative to g(l*-1)-f(l*-1),
// i.e. ratio < 1.
func synthCurveFixed() *profile.Curve {
	return &profile.Curve{
		Model:   "ratio-below-one",
		F:       []float64{0, 10, 100, 140},
		G:       []float64{200, 90, 85, 0},
		CloudMs: make([]float64, 4),
		Bytes:   []int{2000, 900, 850, 0},
		Labels:  make([]string, 4),
	}
}

func TestVariantsRejectBadN(t *testing.T) {
	c := fig2Curve()
	if _, err := JPSPlus(c, 0); err == nil {
		t.Error("JPSPlus(0) must error")
	}
	if _, err := JPSPaperRatio(c, 0); err == nil {
		t.Error("JPSPaperRatio(0) must error")
	}
	// A candidate off the curve is an error naming it, not a panic in
	// JobsForCuts.
	if p, err := TwoPointSearch(c, 2, []int{0, c.Len()}); err == nil || !strings.Contains(err.Error(), "candidate 4 outside [0,4)") {
		t.Errorf("TwoPointSearch with candidate %d = %v, %v; want an error naming it", c.Len(), p, err)
	}
}
