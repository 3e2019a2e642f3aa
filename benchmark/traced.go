package main

import (
	"encoding/json"
	"sort"
	"time"

	"dnnjps/internal/obs"
	rt "dnnjps/internal/runtime"
)

// stageMetrics maps the runtime's own spans (track, name) to the per-layer
// metric that reports their mean duration per job.
var stageMetrics = map[[2]string]string{
	{rt.TrackMobile, rt.SpanLocalCompute}: "stage.local_compute_ms",
	{rt.TrackUplink, rt.SpanQueueWait}:    "stage.queue_wait_ms",
	{rt.TrackUplink, rt.SpanSerialize}:    "stage.serialize_ms",
	{rt.TrackUplink, rt.SpanUpload}:       "stage.upload_ms",
	{rt.TrackCloud, rt.SpanReplyWait}:     "stage.reply_wait_ms",
	{rt.TrackServer, rt.SpanDecode}:       "stage.decode_ms",
	{rt.TrackServer, rt.SpanQueueWait}:    "stage.sched_wait_ms",
	{rt.TrackServer, rt.SpanCoalesceWait}: "stage.coalesce_wait_ms",
	{rt.TrackServer, rt.SpanCloudCompute}: "stage.cloud_compute_ms",
	{rt.TrackServer, rt.SpanReplyWrite}:   "stage.reply_write_ms",
}

// traceFile is what a traced run leaves in outDir.
type traceFile struct {
	Workload  string     `json:"workload"`
	Host      hostInfo   `json:"host"`
	SelfTimes []selfStat `json:"self_times"`
	Spans     []span     `json:"spans"`
}

// runTraced is the run that attributes time to layers. It measures the
// workload untraced first, in the same process, so that the cost of tracing
// is a difference between two phases of one run; then again with the
// benchmark's spans, the runtime's own instruments and the socket counters
// attached; then it probes the layers in isolation. Each timed phase gets
// two fifths of d.
func runTraced(w workload, seed int64, d time.Duration, host *hostInfo) (result, error) {
	part := d * 2 / 5
	plain, _, err := setUp(w, seed, false)
	if err != nil {
		return result{}, err
	}
	ref, err := runPhase(plain, part, nil)
	plain.close()
	if err != nil {
		return result{}, err
	}

	inst, _, err := setUp(w, seed, true)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	// Set-up's warm-up rounds went through the same counters: start clean.
	inst.sums = jobSums{}
	if inst.obs != nil {
		inst.obs.Tracer.Reset()
	}
	if inst.line != nil {
		inst.line.ResetStats()
	}
	wire := socketCounts(inst.conns)
	rec := newRecorder()
	ph, err := runPhase(inst, part, rec)
	if err != nil {
		return result{}, err
	}
	host.Rounds, host.TimedSeconds = len(ph.roundMs), ph.seconds
	jobs := float64(ph.jobs)

	got := map[string]float64{
		"rounds.count":         float64(len(ph.roundMs)),
		"rounds.p50_ms":        median(ph.roundMs),
		"rounds.p90_ms":        percentile(ph.roundMs, 90),
		"proc.cpu_ms_per_job":  ph.cpuMsPerJob,
		"proc.gc_cycles":       float64(ph.gcCycles),
		"trace.overhead_share": (ph.bestMs() - ref.bestMs()) / ref.bestMs(),

		"client.mobile_ms_per_job": inst.sums.mobile / jobs,
		"client.comm_ms_per_job":   inst.sums.comm / jobs,
		"server.cloud_ms_per_job":  inst.sums.cloud / jobs,
		"server.queue_ms_per_job":  inst.sums.queueing / jobs,
	}
	got["rounds.tail_pct"], got["rounds.tail_ms"] = tail(ph.roundMs)

	for i, v := range socketCounts(inst.conns) {
		wire[i] = v - wire[i]
	}
	got["wire.up_bytes_per_job"] = wire[0] / jobs
	got["wire.down_bytes_per_job"] = wire[1] / jobs
	got["wire.writes_per_job"] = wire[2] / jobs
	got["wire.reads_per_job"] = wire[3] / jobs

	var stages []obs.Span
	if o := inst.obs; o != nil {
		if n := o.BatchSize.Count(); n > 0 {
			got["server.batch_mean"] = o.BatchSize.Sum() / float64(n)
		}
		got["server.shed_jobs"] = float64(o.ShedJobs.Value())
		stages = o.Tracer.Spans()
		sum, count := map[string]float64{}, map[string]float64{}
		for _, sp := range stages {
			if metric, ok := stageMetrics[[2]string{sp.Track, sp.Name}]; ok {
				sum[metric] += float64(sp.DurNs) / 1e6
				count[metric]++
			}
		}
		for metric, s := range sum {
			got[metric] = s / count[metric]
		}
	}
	if inst.line != nil {
		st := inst.line.Stats()
		got["nexthop.max_in_flight"] = float64(st.MaxInFlight)
		got["nexthop.forwards_per_job"] = float64(st.Requests) / jobs
		got["nexthop.backhaul_bytes_per_job"] = float64(st.UpBytes+st.DownBytes) / jobs
		if st.Replies > 0 {
			got["nexthop.ms_per_job"] = float64(st.RoundTrip.Nanoseconds()) / 1e6 / float64(st.Replies)
		}
	}
	if inst.scale != 0 && inst.modelMs > 0 {
		got["netsim.makespan_over_model"] = inst.bestMs / inst.modelMs
	}

	probes := rec.begin("probes", 0)
	for _, probe := range []func(*instance, *recorder, int, map[string]float64) error{
		probeEngine, probeWire, probePacing, probePlanner,
	} {
		if err := probe(inst, rec, probes, got); err != nil {
			return result{}, err
		}
	}
	rec.end(probes)
	got["proc.peak_rss_mb"] = peakRSSMiB()

	spans := rec.snapshot()
	if inst.obs != nil {
		spans = adoptStages(spans, stages, inst.obs.Tracer.Epoch().Sub(rec.epoch))
	}
	tf, err := json.Marshal(traceFile{Workload: w.name, Host: *host, SelfTimes: selfTimes(spans), Spans: spans})
	if err != nil {
		return result{}, err
	}
	if err := writeOut("trace-"+w.name+".json", tf); err != nil {
		return result{}, err
	}

	failed := ref.failed + ph.failed
	return result{
		Correct:   failed == 0,
		Attempted: ref.jobs + ph.jobs,
		Failed:    failed,
		Metrics:   valuesFor(perLayer, got),
		roundMs:   ph.roundMs,
	}, nil
}

// socketCounts sums the client-side sockets' counters: bytes up, bytes down,
// writes, reads.
func socketCounts(conns []*countConn) [4]float64 {
	var c [4]float64
	for _, cc := range conns {
		c[0] += float64(cc.writeBytes.Load())
		c[1] += float64(cc.readBytes.Load())
		c[2] += float64(cc.writes.Load())
		c[3] += float64(cc.reads.Load())
	}
	return c
}

// adoptStages appends the runtime's spans to the benchmark's, each as a
// child of the round it started in, named rt.<track>.<name>. offset is the
// runtime tracer's epoch on the recorder's clock.
func adoptStages(spans []span, stages []obs.Span, offset time.Duration) []span {
	var rounds []span
	for _, s := range spans {
		if s.Name == "round" {
			rounds = append(rounds, s)
		}
	}
	for _, sp := range stages {
		start := sp.StartNs + offset.Nanoseconds()
		// The last round that started at or before the span.
		i := sort.Search(len(rounds), func(i int) bool { return rounds[i].StartNs > start }) - 1
		if i < 0 || start > rounds[i].EndNs {
			continue // outside every round: not part of the traced phase
		}
		spans = append(spans, span{
			Name: "rt." + sp.Track + "." + sp.Name, ID: len(spans) + 1, Parent: rounds[i].ID,
			StartNs: start, EndNs: start + sp.DurNs,
		})
	}
	return spans
}
