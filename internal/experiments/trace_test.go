package experiments

import (
	"strings"
	"testing"

	"dnnjps/internal/netsim"
)

// A live traced two-job run: both timelines have a positive makespan,
// the table has one row per resource and the Gantt charts render.
func TestRuntimeTraceLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live runtime test")
	}
	res, err := RuntimeTrace(DefaultEnv(), "squeezenet", netsim.WiFi, 2, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured.Makespan <= 0 || res.Predicted.Makespan <= 0 {
		t.Fatalf("non-positive makespans: measured %f, predicted %f", res.Measured.Makespan, res.Predicted.Makespan)
	}
	if tbl := TraceTable(res); len(tbl.Rows) != 3 {
		t.Fatalf("trace table carries %d rows, want 3", len(tbl.Rows))
	}
	var b strings.Builder
	if err := TraceGantt(&b, res, 64); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Measured trace") || !strings.Contains(b.String(), "Predicted") {
		t.Fatalf("Gantt output incomplete:\n%s", b.String())
	}
}
