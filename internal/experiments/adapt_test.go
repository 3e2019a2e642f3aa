package experiments

import (
	"strings"
	"testing"
)

// TestRuntimeAdaptLive runs the adapt figure end-to-end over loopback
// at a reduced job count. The assertions are structural plus the loose
// ordering the figure exists to show — continuous clearly beats the
// static plan and lands near the oracle — with wide margins so
// host-speed variance cannot flake them (the tight margins are the
// full-size figure's, checked on the committed jpsbench output).
func TestRuntimeAdaptLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback experiment")
	}
	rows, trace, err := RuntimeAdapt(DefaultEnv(), 32, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byName := map[string]*AdaptRow{}
	for _, r := range rows {
		if r.Jobs != 32 || r.MakespanMs <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		byName[r.Policy] = r
	}
	for _, name := range []string{"static", "continuous", "oracle"} {
		if byName[name] == nil {
			t.Fatalf("missing %q row", name)
		}
	}
	static := byName["static"]
	if static.Replans != 0 || static.ChangePoints != 0 || static.EstMbps != 0 {
		t.Fatalf("static row replanned or grew an estimator: %+v", static)
	}
	cont := byName["continuous"]
	if cont.Replans == 0 || cont.ChangePoints == 0 {
		t.Fatalf("continuous row never adapted: %+v", cont)
	}
	if cont.EstMbps <= 0 || cont.EstMbps >= AdaptChannel().UplinkMbps {
		t.Fatalf("final estimate %.2f Mb/s not inside the degraded regime", cont.EstMbps)
	}
	// The ordering the figure exists to show, with generous slack.
	if cont.MakespanMs > 0.95*static.MakespanMs {
		t.Fatalf("continuous (%.0f ms) not clearly better than static (%.0f ms)",
			cont.MakespanMs, static.MakespanMs)
	}
	if orc := byName["oracle"]; cont.MakespanMs > 1.35*orc.MakespanMs {
		t.Fatalf("continuous (%.0f ms) too far from oracle (%.0f ms)",
			cont.MakespanMs, orc.MakespanMs)
	}

	// The recorded trace must replay to at least one Down change point
	// that lands in the degraded regime and moves the dominant cut.
	if trace == nil || len(trace.Samples) != 32 {
		t.Fatalf("trace not recorded from the continuous run: %+v", trace)
	}
	var down bool
	for _, p := range trace.Points {
		if p.Direction == "down" && p.Mbps < 4 && p.Cut == 2 {
			down = true
		}
	}
	if !down {
		t.Fatalf("no down change point into the small-boundary cut: %+v", trace.Points)
	}
	tbl := RuntimeAdaptTable(rows)
	if tbl == nil {
		t.Fatal("nil table")
	}
	if s := tbl.String(); !strings.Contains(s, "continuous") || !strings.Contains(s, "oracle") {
		t.Fatalf("table missing policies:\n%s", s)
	}
}
