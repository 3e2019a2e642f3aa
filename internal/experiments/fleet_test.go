package experiments

import (
	"testing"

	"dnnjps/internal/netsim"
)

// A live fleet run at one and three clients plus the overload row:
// every job of a row is batched, solo or shed, only the armed row may
// shed, and the latency and load columns are well formed.
func TestRuntimeFleetLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live runtime test")
	}
	rows, err := RuntimeFleet(DefaultEnv(), "mobilenetv2", netsim.WiFi, []int{1, 3}, 4, 2, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (two counts and the overload row)", len(rows))
	}
	for i, r := range rows {
		if jobs := int64(r.Clients * r.JobsPerClient); r.BatchedJobs+r.SoloJobs+r.Shed != jobs {
			t.Errorf("row %d: batched %d + solo %d + shed %d, want %d jobs", i, r.BatchedJobs, r.SoloJobs, r.Shed, jobs)
		}
		if i < 2 && (r.Watermark != 0 || r.Shed != 0) {
			t.Errorf("row %d: shed with admission control off: %+v", i, r)
		}
		if r.P50Ms > r.P99Ms || r.BusyPerJobMs <= 0 || r.MeanBatch < 1 {
			t.Errorf("row %d: malformed load or latency: %+v", i, r)
		}
	}
	if tbl := RuntimeFleetTable(rows); len(tbl.Rows) != 3 {
		t.Fatalf("table carries %d rows, want 3", len(tbl.Rows))
	}
}
