package experiments

import (
	"fmt"
	"sort"

	"dnnjps/internal/engine"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/report"
	"dnnjps/internal/runtime"
)

// RuntimeFleetResult is one fleet-load probe: N concurrent clients on
// independent TCP connections flood one shared server, each with its
// own tenant ID, and the server-wide scheduler arbitrates — admission
// control, cross-connection coalescing, weighted fair queueing.
type RuntimeFleetResult struct {
	Model         string
	Clients       int
	JobsPerClient int
	Watermark     int
	// MakespanMs is the wall time from first dial to last reply
	// across every client.
	MakespanMs float64
	// BusyPerJobMs is the wall time the server's cloud-compute spans
	// cover divided by the job count — the per-job cost
	// cross-connection batching shrinks.
	BusyPerJobMs float64
	// MeanBatch is the average executed group size. Per-connection
	// coalescing pins this near jobs-per-burst; server-wide
	// coalescing lets it grow with the client count.
	MeanBatch float64
	// P50Ms / P99Ms summarize per-job round-trip latency (upload to
	// reply, client-measured).
	P50Ms, P99Ms float64
	BatchedJobs  int64
	SoloJobs     int64
	// Shed counts jobs admission control refused (overload rows).
	Shed int64
}

// RuntimeFleet runs the fleet probe at each client count against the
// server's one grouping rule (a dense tail's jobs park at the tail unit
// and share groups across connections); if shedWatermark > 0 a final
// overload row repeats the largest count with admission control armed,
// showing shedding bound p99 instead of letting the queue collapse it.
// Every client runs over its own loopback TCP connection with its own
// tenant ID, so the rows exercise the hello handshake, per-tenant
// accounting, and cross-connection grouping with genuinely independent
// sockets.
func RuntimeFleet(env Env, model string, ch netsim.Channel, clientCounts []int, jobsPerClient, shedWatermark int, timeScale float64) ([]*RuntimeFleetResult, error) {
	m := engine.Load(mustModel(model), 42)
	cut, protos, err := headJobs(m)
	if err != nil {
		return nil, err
	}

	run := func(clients, wm int) (*RuntimeFleetResult, error) {
		o := runtime.NewObs(obs.NewTracer(0), obs.NewMetrics())
		// One worker: concurrent workers timeslice on small hosts and
		// inflate each other's compute spans, which would corrupt the
		// busy-time column this figure exists to compare.
		srv := runtime.NewServer(m).WithWorkers(1).WithObs(o)
		if wm > 0 {
			srv = srv.WithShedWatermark(wm)
		}
		reps, makespan, err := flood(srv, m, ch, timeScale, cut, protos, clients, jobsPerClient)
		if err != nil {
			return nil, err
		}
		var latencies []float64
		for _, rep := range reps {
			for _, r := range rep.Results {
				latencies = append(latencies, r.CommMs+r.CloudMs+r.QueueMs)
			}
		}

		busyMs, meanBatch := serverLoad(o)
		sort.Float64s(latencies)
		pct := func(p float64) float64 {
			if len(latencies) == 0 {
				return 0
			}
			i := int(p * float64(len(latencies)-1))
			return latencies[i]
		}
		jobs := clients * jobsPerClient
		return &RuntimeFleetResult{
			Model:         model,
			Clients:       clients,
			JobsPerClient: jobsPerClient,
			Watermark:     wm,
			MakespanMs:    makespan,
			BusyPerJobMs:  busyMs / float64(jobs),
			MeanBatch:     meanBatch,
			P50Ms:         pct(0.50),
			P99Ms:         pct(0.99),
			BatchedJobs:   o.BatchedJobs.Value(),
			SoloJobs:      o.SoloJobs.Value(),
			Shed:          o.ShedJobs.Value(),
		}, nil
	}

	var results []*RuntimeFleetResult
	for _, n := range clientCounts {
		r, err := run(n, 0)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	if shedWatermark > 0 && len(clientCounts) > 0 {
		r, err := run(clientCounts[len(clientCounts)-1], shedWatermark)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// RuntimeFleetTable renders the fleet rows; a nonzero watermark marks
// the overload row where admission control bounds the tail.
func RuntimeFleetTable(results []*RuntimeFleetResult) *report.Table {
	t := report.NewTable(
		"Fleet serving — cross-connection batching and admission control vs client count",
		"Model", "Clients", "Jobs", "Watermark", "Makespan(ms)", "Busy/job(ms)",
		"MeanBatch", "p50(ms)", "p99(ms)", "Batched", "Solo", "Shed")
	for _, r := range results {
		wm := "-"
		if r.Watermark > 0 {
			wm = fmt.Sprintf("%d", r.Watermark)
		}
		t.AddRow(displayName(r.Model), r.Clients, r.Clients*r.JobsPerClient, wm,
			fmtMs(r.MakespanMs), fmt.Sprintf("%.3f", r.BusyPerJobMs),
			fmt.Sprintf("%.2f", r.MeanBatch), fmtMs(r.P50Ms), fmtMs(r.P99Ms),
			r.BatchedJobs, r.SoloJobs, r.Shed)
	}
	return t
}
