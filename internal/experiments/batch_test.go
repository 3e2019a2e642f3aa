package experiments

import (
	"math"
	"testing"
	"time"

	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/runtime"
)

// serverLoad's busy time is the union of the server's cloud-compute
// spans: a group's copied span and concurrent workers' overlapping
// spans each cover their wall time once, and spans of other tracks or
// names count nothing.
func TestServerLoadUnionsSpans(t *testing.T) {
	type span struct{ from, to int } // ms after the tracer's epoch
	for _, tc := range []struct {
		name  string
		spans []span
		want  float64
	}{
		{"none", nil, 0},
		{"identical", []span{{0, 10}, {0, 10}}, 10},
		{"overlapping", []span{{0, 10}, {5, 15}}, 15},
		{"nested", []span{{0, 20}, {5, 10}}, 20},
		{"disjoint", []span{{0, 5}, {10, 15}}, 10},
		{"mixed", []span{{0, 10}, {0, 10}, {5, 15}, {20, 25}}, 20},
	} {
		tr := obs.NewTracer(0)
		at := func(ms int) time.Time { return tr.Epoch().Add(time.Duration(ms) * time.Millisecond) }
		for i, sp := range tc.spans {
			tr.Record(runtime.TrackServer, runtime.SpanCloudCompute, i, at(sp.from), at(sp.to))
		}
		tr.Record(runtime.TrackServer, runtime.SpanQueueWait, 0, at(0), at(40))
		tr.Record(runtime.TrackCloud, runtime.SpanCloudCompute, 0, at(0), at(40))
		busy, meanBatch := serverLoad(runtime.NewObs(tr, obs.NewMetrics()))
		if math.Abs(busy-tc.want) > 1e-9 || meanBatch != 1 {
			t.Errorf("%s: serverLoad = %g ms busy, mean batch %g; want %g ms, 1", tc.name, busy, meanBatch, tc.want)
		}
	}
}

// A live batching run on the server's one rule: a job parks at the
// model's tail unit and shares its fully connected tail with whoever
// parked within the hold. SqueezeNet's classifier is a convolution, so
// it has no tail unit and nothing groups; MobileNet-v2's jobs — cut at
// head/gap, the tail unit, and fired at once — each go through exactly
// one tail group, and groups form (arrivals are upload-paced on a
// cloud-only plan, well inside the 2 ms hold).
func TestRuntimeBatchLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live runtime test")
	}
	env := DefaultEnv()
	res, err := RuntimeBatch(env, "squeezenet", netsim.WiFi, []int{6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	base := res[0]
	if base.MeanBatch != 1 || base.BatchedJobs+base.SoloJobs != 0 {
		t.Errorf("no dense head: nothing may group: %+v", base)
	}
	if base.MakespanMs <= 0 || base.ServerBusyMs <= 0 || base.FormulaMs <= 0 {
		t.Errorf("non-positive measurements: %+v", base)
	}
	if tbl := RuntimeBatchTable(res); tbl == nil || len(tbl.Rows) != 1 {
		t.Fatal("table must carry the row")
	}

	res, err = RuntimeBatch(env, "mobilenetv2", netsim.WiFi, []int{6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dense := res[0]
	if dense.BatchedJobs+dense.SoloJobs != int64(dense.Jobs) {
		t.Errorf("dense head: every job goes through one tail group: %+v", dense)
	}
	if dense.MeanBatch <= 1 {
		t.Errorf("dense head: mean batch %f, want > 1: six jobs at once share their tail", dense.MeanBatch)
	}
}
