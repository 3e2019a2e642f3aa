package experiments

import (
	"testing"
	"time"

	"dnnjps/internal/netsim"
)

// A live coalescer run on a small model: the windowed row must record
// batched executions (arrivals are upload-paced on a cloud-only plan,
// so a 25ms window groups them), and server busy time must not grow
// when groups form. The window-0 row is the default server, which
// groups a model's fully connected tail when a worker picks it up:
// SqueezeNet's classifier is a convolution, so its row stays batch-1
// with no group recorded, while MobileNet-v2's jobs — cut at head/gap,
// the tail unit — each go through exactly one tail group.
func TestRuntimeBatchLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live runtime test")
	}
	env := DefaultEnv()
	res, err := RuntimeBatch(env, "squeezenet", netsim.WiFi,
		[]int{6}, []time.Duration{0, 25 * time.Millisecond}, 8, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	base, batched := res[0], res[1]
	if base.WindowMs != 0 || batched.WindowMs <= 0 {
		t.Fatalf("rows out of order: %+v", res)
	}
	if base.MeanBatch != 1 || base.BatchedJobs+base.SoloJobs != 0 {
		t.Errorf("no dense head, no window: nothing may group: %+v", base)
	}
	if base.MakespanMs <= 0 || base.ServerBusyMs <= 0 || base.FormulaMs <= 0 {
		t.Errorf("baseline has non-positive measurements: %+v", base)
	}
	if batched.BatchedJobs+batched.SoloJobs != int64(base.Jobs) {
		t.Errorf("windowed run lost jobs: %+v", batched)
	}
	if batched.BatchedJobs < 2 {
		t.Errorf("windowed run formed no groups: %+v", batched)
	}
	if batched.MeanBatch <= 1 {
		t.Errorf("windowed run mean batch %f, want > 1", batched.MeanBatch)
	}
	tbl := RuntimeBatchTable(res)
	if tbl == nil || len(tbl.Rows) != 2 {
		t.Fatal("table must carry both rows")
	}

	res, err = RuntimeBatch(env, "mobilenetv2", netsim.WiFi, []int{6}, []time.Duration{0}, 8, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if dense := res[0]; dense.BatchedJobs+dense.SoloJobs != int64(dense.Jobs) || dense.MeanBatch < 1 {
		t.Errorf("dense head, no window: every job goes through one tail group: %+v", dense)
	}
}
