package runtime

import (
	"time"

	"dnnjps/internal/obs"
)

// Span tracks: one lane per pipeline resource, matching the paper's
// per-stage decomposition (device compute f, upload g, cloud) plus the
// server's own view and the fault-tolerant runner's recovery events.
const (
	TrackMobile = "mobile" // client-side prefix compute (the paper's f)
	TrackUplink = "uplink" // writer-goroutine occupancy (the paper's g)
	TrackCloud  = "cloud"  // client-side wait for the reply
	TrackServer = "server" // server-side decode/queue/compute/reply
	TrackRunner = "runner" // recovery state machine events
)

// Span names. Resource-occupancy names (SpanLocalCompute, SpanUpload,
// SpanCloudCompute) map 1:1 onto simulator resources; the rest are
// waits and recovery events.
const (
	SpanLocalCompute  = "local-compute"  // mobile: one job's prefix
	SpanQueueWait     = "queue-wait"     // uplink: enqueue -> writer pickup; server: decode -> pop from the WFQ (a worker's pickup, or the park of a job popped straight into a group)
	SpanSerialize     = "serialize"      // uplink: frame encode inside the upload
	SpanUpload        = "upload"         // uplink: setup delay + encode + paced transmit
	SpanReplyWait     = "reply-wait"     // cloud: upload end -> reply delivered
	SpanDecode        = "decode"         // server: request body decode
	SpanCoalesceWait  = "coalesce-wait"  // server: time held for companions, on every stage: park -> the group's pickup (inside cloud-compute for a job whose conv span ran first)
	SpanCloudCompute  = "cloud-compute"  // server: worker pickup -> answer ready, the reply's CloudNs (on a forwarding stage: -> relay)
	SpanForwardWait   = "forward-wait"   // server (forwarding stage): handoff flushed -> downstream reply
	SpanReplyWrite    = "reply-write"    // server: reply encode + flush
	SpanRedial        = "redial"         // runner: dial attempt
	SpanBackoff       = "backoff"        // runner: jittered backoff sleep
	SpanReplan        = "replan"         // runner: mid-run re-planning
	SpanLocalFallback = "local-fallback" // runner: job finished on the mobile engine
)

// Event names (instantaneous markers, no duration).
const (
	EventChangePoint   = "link-changepoint" // uplink: estimator detected a bandwidth regime shift
	EventReplanTrigger = "replan-trigger"   // runner: adaptive replan decision point (precedes SpanReplan)
)

// Obs bundles the tracer and every metric the runtime records. Pass
// one instance to the client, server, and runner that should share a
// registry (the in-process experiments do; a real deployment gives
// each process its own). A client, server or runner that was given no
// bundle, or WithObs(nil), holds the zero Obs: every instrument is nil,
// and a nil instrument records nothing (see internal/obs), so no
// recording site branches on whether observability is attached and the
// wire hot path stays allocation-free either way.
type Obs struct {
	Tracer *obs.Tracer

	// Client-side.
	JobsCompleted *obs.Counter   // jps_client_jobs_completed_total
	BytesUp       *obs.Counter   // jps_client_uplink_bytes_total (wire bytes of completed uploads)
	BytesDown     *obs.Counter   // jps_client_downlink_bytes_total (reply frames)
	ConnBytes     *obs.Gauge     // jps_client_conn_bytes (shaper's ground-truth byte count)
	LinkMbps      *obs.Gauge     // jps_client_uplink_mbps (measured, channel-scale)
	EstMbps       *obs.Gauge     // jps_client_est_uplink_mbps (EWMA throughput estimate, channel-scale)
	ChangePoints  *obs.Counter   // jps_client_link_changepoints_total (estimator regime shifts)
	ReplyLatency  *obs.Histogram // jps_client_reply_latency_ms (send start -> reply)

	// Runner recovery.
	JobsRetried    *obs.Counter // jps_runner_jobs_retried_total
	Reconnects     *obs.Counter // jps_runner_reconnects_total
	Replans        *obs.Counter // jps_runner_replans_total
	LocalFallbacks *obs.Counter // jps_runner_local_fallback_jobs_total

	// Server-side.
	ServerJobs    *obs.Counter // jps_server_jobs_total (replies written)
	ServerRxBytes *obs.Counter // jps_server_rx_bytes_total (request frames)
	ServerTxBytes *obs.Counter // jps_server_tx_bytes_total (reply frames)
	WorkersBusy   *obs.Gauge   // jps_server_workers_busy (pool occupancy)

	// Cross-job batching: every parked tail group, observed when a worker
	// picks it up, and every middle-segment pass of a forwarding stage
	// (see fleet.go).
	BatchSize   *obs.Histogram // jps_server_batch_size (jobs per executed group)
	BatchedJobs *obs.Counter   // jps_server_batched_jobs_total (jobs executed in groups of >= 2)
	SoloJobs    *obs.Counter   // jps_server_solo_jobs_total (jobs that ran as a group of one: a tail group or a middle segment; a job that ran neither counts in neither)

	// Fleet scheduler: admission control, WFQ, shedding (see fleet.go).
	QueueDepth          *obs.Gauge      // jps_server_queue_depth (jobs admitted and not yet picked up: a job counts until a worker pops it, and no longer once parked for its group)
	ShedJobs            *obs.Counter    // jps_server_shed_jobs_total (jobs refused at the overload watermark)
	BackpressureReplies *obs.Counter    // jps_server_backpressure_replies_total (replies carrying the hint flag)
	TenantJobs          *obs.CounterVec // jps_server_tenant_jobs_total{tenant} (replies per tenant, shed included)
	TenantRxBytes       *obs.CounterVec // jps_server_tenant_rx_bytes_total{tenant} (request bytes per tenant)

	// Forwarding stage (see nexthop.go).
	NextHopForwards  *obs.Counter // jps_nexthop_forwards_total (handoffs put in flight toward the next hop)
	NextHopFallbacks *obs.Counter // jps_nexthop_fallbacks_total (forwarded jobs finished locally instead)
	NextHopInFlight  *obs.Gauge   // jps_nexthop_in_flight (handoffs awaiting their reply)
}

// NewObs wires a tracer and a metric registry into the runtime's
// canonical instrument set (the names above, documented in DESIGN.md
// "Observability"). Either argument may be nil: a nil tracer records
// no spans, a nil registry records no metrics.
func NewObs(tr *obs.Tracer, m *obs.Metrics) *Obs {
	return &Obs{
		Tracer:        tr,
		JobsCompleted: m.Counter("jps_client_jobs_completed_total", "inference replies delivered to the client"),
		BytesUp:       m.Counter("jps_client_uplink_bytes_total", "wire bytes of completed boundary-tensor uploads"),
		BytesDown:     m.Counter("jps_client_downlink_bytes_total", "wire bytes of received reply frames"),
		ConnBytes:     m.Gauge("jps_client_conn_bytes", "bytes written through the shaped connection (ground truth incl. pings)"),
		LinkMbps:      m.Gauge("jps_client_uplink_mbps", "measured uplink throughput of the last completed upload, channel-scale"),
		EstMbps:       m.Gauge("jps_client_est_uplink_mbps", "EWMA uplink throughput estimate, channel-scale"),
		ChangePoints:  m.Counter("jps_client_link_changepoints_total", "bandwidth regime shifts detected by the link estimator"),
		ReplyLatency:  m.Histogram("jps_client_reply_latency_ms", "transmission start to reply delivery, ms", nil),

		JobsRetried:    m.Counter("jps_runner_jobs_retried_total", "job resubmissions after a failed attempt"),
		Reconnects:     m.Counter("jps_runner_reconnects_total", "redials after the initial connection"),
		Replans:        m.Counter("jps_runner_replans_total", "mid-run re-planning events"),
		LocalFallbacks: m.Counter("jps_runner_local_fallback_jobs_total", "jobs finished on the mobile engine after the uplink was given up on"),

		ServerJobs:    m.Counter("jps_server_jobs_total", "inference replies written by the server"),
		ServerRxBytes: m.Counter("jps_server_rx_bytes_total", "wire bytes of decoded inference requests"),
		ServerTxBytes: m.Counter("jps_server_tx_bytes_total", "wire bytes of written reply frames"),
		WorkersBusy:   m.Gauge("jps_server_workers_busy", "inference worker pool occupancy"),

		BatchSize:   m.Histogram("jps_server_batch_size", "jobs per executed batch group", obs.BatchSizeBuckets),
		BatchedJobs: m.Counter("jps_server_batched_jobs_total", "jobs executed in groups of two or more"),
		SoloJobs:    m.Counter("jps_server_solo_jobs_total", "jobs that ran as a group of one"),

		QueueDepth:          m.Gauge("jps_server_queue_depth", "jobs admitted to the fleet scheduler and not yet picked up by a worker"),
		ShedJobs:            m.Counter("jps_server_shed_jobs_total", "jobs refused by admission control at the overload watermark"),
		BackpressureReplies: m.Counter("jps_server_backpressure_replies_total", "replies carrying the backpressure hint flag"),
		TenantJobs:          m.CounterVec("jps_server_tenant_jobs_total", "replies written per tenant (shed replies included)", "tenant"),
		TenantRxBytes:       m.CounterVec("jps_server_tenant_rx_bytes_total", "decoded request bytes per tenant", "tenant"),

		NextHopForwards:  m.Counter("jps_nexthop_forwards_total", "handoffs put in flight toward the next hop"),
		NextHopFallbacks: m.Counter("jps_nexthop_fallbacks_total", "forwarded jobs finished locally after the next hop failed, hung or shed them"),
		NextHopInFlight:  m.Gauge("jps_nexthop_in_flight", "handoffs awaiting their reply from the next hop"),
	}
}

// orZero is what WithObs stores: o itself, or the zero Obs for nil.
func orZero(o *Obs) *Obs {
	if o == nil {
		return new(Obs)
	}
	return o
}

// span records one completed span.
func (o *Obs) span(track, name string, jobID int, start, end time.Time) {
	o.Tracer.Record(track, name, jobID, start, end)
}

// event records an instantaneous marker.
func (o *Obs) event(track, name string, jobID int, at time.Time) {
	o.Tracer.Event(track, name, jobID, at)
}
