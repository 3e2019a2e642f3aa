package experiments

import (
	"fmt"

	"dnnjps/internal/engine"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/report"
	"dnnjps/internal/runtime"
)

// RuntimeBatchResult is one live run of the server's tail groups: n
// concurrent jobs cut at the model's deepest parameterized position
// (suffix = the weight-heavy head) are fired at the server all at
// once via Client.RunBoundaryJobs, so the groups see genuine request
// concurrency.
type RuntimeBatchResult struct {
	Model string
	Jobs  int
	// MakespanMs is the measured first-enqueue → last-reply span.
	MakespanMs float64
	// ServerBusyMs is the wall time the server's cloud-compute spans
	// cover. Members of one batch group share a single execution span
	// and concurrent workers' spans overlap, so overlaps are counted
	// once: this is the wall time the suffix stage actually occupied,
	// the quantity batching shrinks.
	ServerBusyMs float64
	// MeanBatch is the average executed group size (1 when no group
	// was recorded: a model without a dense head).
	MeanBatch float64
	// BatchedJobs / SoloJobs split the jobs by whether they shared a
	// group (solo = a tail group of one).
	BatchedJobs int64
	SoloJobs    int64
	// FormulaMs is Prop. 4.1's two-stage closed form for this run:
	// with no mobile stage it degenerates to the uplink bound Σg. The
	// gap between it and the measured makespan is the server stage —
	// the term the closed form excludes and batching attacks.
	FormulaMs float64
}

// RuntimeBatch executes the concurrent-job probe for each job count
// over loopback TCP against the server's one grouping rule and reports
// makespan, server busy time and achieved batch sizes. On a model with a
// dense head the jobs park at its tail unit and share one pass through
// it per group, each group held at most the server's 2 ms hold (Theorem
// 5.3 guarantees a JPS plan feeds the server at most two boundary
// shapes, so grouping by cut cannot fragment); a model whose classifier
// is a convolution has no tail and runs job at a time. The cut is the
// deepest offloaded position whose suffix still holds parameters: the
// suffix is the classifier head, weight-streaming-bound, the regime
// where one shared weight pass per group pays off even on a single core.
func RuntimeBatch(env Env, model string, ch netsim.Channel, jobCounts []int, timeScale float64) ([]*RuntimeBatchResult, error) {
	m := engine.Load(mustModel(model), 42)
	cut, protos, err := headJobs(m)
	if err != nil {
		return nil, err
	}
	up := timeScale * ch.TxMs(runtime.RequestWireBytes(protos[0].Shape))

	var results []*RuntimeBatchResult
	for _, n := range jobCounts {
		o := runtime.NewObs(obs.NewTracer(0), obs.NewMetrics())
		reps, _, err := flood(runtime.NewServer(m).WithWorkers(4).WithObs(o), m, ch, timeScale, cut, protos, 1, n)
		if err != nil {
			return nil, err
		}
		rep := reps[0]
		busyMs, meanBatch := serverLoad(o)

		// Prop. 4.1 reference, as in RuntimePipeline: measured f
		// (zero here — no mobile stage), channel-model g.
		seq := make([]flowshop.Job, 0, n)
		for _, r := range rep.Results {
			seq = append(seq, flowshop.Job{ID: r.JobID, A: r.MobileMs, B: up})
		}

		results = append(results, &RuntimeBatchResult{
			Model:        model,
			Jobs:         n,
			MakespanMs:   rep.MakespanMs,
			ServerBusyMs: busyMs,
			MeanBatch:    meanBatch,
			BatchedJobs:  o.BatchedJobs.Value(),
			SoloJobs:     o.SoloJobs.Value(),
			FormulaMs:    flowshop.FormulaMakespan(seq),
		})
	}
	return results, nil
}

// RuntimeBatchTable renders the batching runs, one row per job count.
func RuntimeBatchTable(results []*RuntimeBatchResult) *report.Table {
	t := report.NewTable(
		"Cross-job batching — makespan and server CPU vs concurrent jobs",
		"Model", "Jobs", "Makespan(ms)", "ServerBusy(ms)", "MeanBatch", "Batched", "Solo", "Prop4.1(ms)")
	for _, r := range results {
		t.AddRow(displayName(r.Model), r.Jobs, fmtMs(r.MakespanMs),
			fmtMs(r.ServerBusyMs), fmt.Sprintf("%.2f", r.MeanBatch),
			r.BatchedJobs, r.SoloJobs, fmtMs(r.FormulaMs))
	}
	return t
}
