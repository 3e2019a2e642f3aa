package experiments

import (
	"strings"
	"testing"

	"dnnjps/internal/core"
	"dnnjps/internal/netsim"
)

func TestThreeTierExperiment(t *testing.T) {
	e := env()
	e.NJobs = 20
	rows, err := ThreeTier(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("got %d rows", len(rows))
	}
	anyGain := false
	for _, r := range rows {
		// Three-tier can always fall back to the two-tier split, so it
		// never loses.
		if r.KWayMs > r.OneCutMs*1.001 {
			t.Errorf("%s@%s: three-tier %.1f worse than two-tier %.1f",
				r.Model, r.Uplink, r.KWayMs, r.OneCutMs)
		}
		if r.GainPct > 1 {
			anyGain = true
		}
	}
	if !anyGain {
		t.Error("three-tier shows no gain anywhere; the edge should pay off at slow uplinks")
	}
	if !strings.Contains(ThreeTierTable(rows).String(), "Three-tier") {
		t.Error("table missing header")
	}
	// With the thin backhaul, substantial wins must appear (the whole
	// point of the middle tier).
	bigWin := false
	for _, r := range rows {
		if r.GainPct > 20 {
			bigWin = true
		}
	}
	if !bigWin {
		t.Error("expected >20% three-tier gains with a bottleneck backhaul")
	}
}

func TestThreeTierFastBackhaulAddsNothing(t *testing.T) {
	// Control: with a backhaul much faster than the uplink, the second
	// hop never bottlenecks and the edge tier is pointless.
	e := env()
	e.NJobs = 20
	g := mustModel("alexnet")
	ch, err := ChainEnvDefault(e, netsim.FourG, 2)
	if err != nil {
		t.Fatal(err)
	}
	ch.Links[1] = netsim.Channel{Name: "fat", UplinkMbps: 1000, SetupMs: 1}
	three, err := core.JPSChain(g, ch, e.NJobs)
	if err != nil {
		t.Fatal(err)
	}
	two, err := core.OneCutChain(g, ch, e.NJobs)
	if err != nil {
		t.Fatal(err)
	}
	if gain := pct(two.AvgMs(), three.AvgMs()); gain > 2 {
		t.Errorf("fast backhaul should leave no room for the edge tier; gain = %.1f%%", gain)
	}
}
