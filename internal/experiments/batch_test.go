package experiments

import (
	"testing"

	"dnnjps/internal/netsim"
)

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
