// Package obs is the runtime's observability substrate: per-job
// per-stage spans recorded into a bounded in-memory buffer, plus
// counters/gauges/histograms with Prometheus text exposition. The
// paper's whole argument is a per-stage decomposition — device compute
// f(x), upload g(x), cloud compute — so the runtime records exactly
// those stages and exports them in forms a person can open: Chrome
// trace_event JSON (chrome://tracing, Perfetto) and plain JSON, while
// the metrics answer "is production degraded right now".
//
// Everything is safe on a nil receiver: an un-instrumented client or
// server passes nil and every record call is a branch and a return, so
// the wire hot path stays allocation-free whether or not tracing is on.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one recorded stage: a named interval on a track (a resource
// lane such as "mobile", "uplink", "cloud", "server", "runner"),
// attributed to a job. JobID is -1 for events that belong to no job
// (redials, backoff sleeps). Times are nanoseconds since the tracer's
// epoch, so spans from one tracer share a clock and merge into one
// coherent timeline.
type Span struct {
	Track   string `json:"track"`
	Name    string `json:"name"`
	JobID   int32  `json:"job"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// EndNs returns the span's end offset.
func (s Span) EndNs() int64 { return s.StartNs + s.DurNs }

// EndMs is the span's end on the simulator's millisecond axis.
func (s Span) EndMs() float64 { return float64(s.StartNs+s.DurNs) / 1e6 }

// DefaultTraceCap bounds a tracer built with NewTracer(0). At 32 bytes
// + two interned string headers per span this keeps the buffer around
// a megabyte.
const DefaultTraceCap = 16384

// Tracer is a bounded in-memory span buffer. Recording is a mutex and
// a slot write — no allocation when the track/name strings are
// constants (they are, everywhere the runtime records). When the
// buffer is full the oldest spans are overwritten ring-style and
// Dropped counts them, so a long-running server keeps the most recent
// window rather than the first.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []Span
	next    int  // ring write cursor
	wrapped bool // the ring has overwritten at least one span
	dropped int64
}

// NewTracer builds a tracer holding at most capacity spans
// (capacity <= 0 means DefaultTraceCap). The epoch is now.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, capacity)}
}

// Epoch returns the instant span offsets are measured from.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Record stores one completed span. Safe on a nil tracer (no-op), safe
// for concurrent use, and allocation-free once the ring is warm.
func (t *Tracer) Record(track, name string, jobID int, start, end time.Time) {
	if t == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	sp := Span{
		Track:   track,
		Name:    name,
		JobID:   int32(jobID),
		StartNs: start.Sub(t.epoch).Nanoseconds(),
		DurNs:   end.Sub(start).Nanoseconds(),
	}
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, sp)
	} else {
		t.spans[t.next] = sp
		t.wrapped = true
		t.dropped++
	}
	t.next++
	if t.next == cap(t.spans) {
		t.next = 0
	}
	t.mu.Unlock()
}

// Event records an instantaneous marker (a zero-duration span).
func (t *Tracer) Event(track, name string, jobID int, at time.Time) {
	t.Record(track, name, jobID, at, at)
}

// Dropped reports how many spans the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len reports how many spans the buffer currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Reset empties the buffer and restarts the epoch at now.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.epoch = time.Now()
	t.spans = t.spans[:0]
	t.next = 0
	t.wrapped = false
	t.dropped = 0
	t.mu.Unlock()
}

// Spans returns a copy of the buffer sorted by start time. Ring
// wraparound makes raw order non-chronological; sorting restores it.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}

// WriteJSON exports the buffer as plain JSON: epoch, drop count, and
// the chronologically sorted spans.
func (t *Tracer) WriteJSON(w io.Writer) error {
	type dump struct {
		Epoch   string `json:"epoch"`
		Dropped int64  `json:"dropped"`
		Spans   []Span `json:"spans"`
	}
	d := dump{Epoch: t.Epoch().Format(time.RFC3339Nano), Dropped: t.Dropped(), Spans: t.Spans()}
	if d.Spans == nil {
		d.Spans = []Span{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(d)
}

// TraceDump is the parsed form of WriteJSON's output: the recording
// epoch, the ring's drop count, and the chronologically sorted spans.
type TraceDump struct {
	Epoch   time.Time
	Dropped int64
	Spans   []Span
}

// ReadJSON parses a trace previously exported with WriteJSON — the
// inverse used by trace-driven regression tests, which replay a
// committed recording through the simulator instead of re-measuring
// wall-clock behavior.
func ReadJSON(r io.Reader) (*TraceDump, error) {
	var d struct {
		Epoch   string `json:"epoch"`
		Dropped int64  `json:"dropped"`
		Spans   []Span `json:"spans"`
	}
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("obs: parse trace dump: %w", err)
	}
	epoch, err := time.Parse(time.RFC3339Nano, d.Epoch)
	if err != nil {
		return nil, fmt.Errorf("obs: parse trace epoch: %w", err)
	}
	return &TraceDump{Epoch: epoch, Dropped: d.Dropped, Spans: d.Spans}, nil
}

// chromeEvent is one trace_event entry. Complete ("X") events carry a
// microsecond timestamp and duration; metadata ("M") events name the
// synthetic threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// laneWidth spaces the tids assigned to one track: overlapping spans
// on a track (several jobs queued at once) spill into extra lanes so
// viewers that require properly nested slices per thread render them
// without clipping.
const laneWidth = 64

// WriteChromeTrace exports the buffer in Chrome trace_event format
// ({"traceEvents": [...]}), loadable in chrome://tracing and Perfetto.
// Each track becomes a named synthetic thread; spans that overlap
// within a track are spread across extra lanes ("uplink", "uplink#2",
// ...) by greedy interval partitioning, so the file is always
// well-nested.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	// Track order: first appearance.
	trackOf := map[string]int{}
	var tracks []string
	for _, sp := range spans {
		if _, ok := trackOf[sp.Track]; !ok {
			trackOf[sp.Track] = len(tracks)
			tracks = append(tracks, sp.Track)
		}
	}
	events := make([]chromeEvent, 0, 2*len(spans)+len(tracks))
	laneEnd := map[int][]int64{} // track index -> per-lane last end ns
	laneUsed := map[int]int{}
	for _, sp := range spans { // sorted by start: greedy lane assignment is valid
		ti := trackOf[sp.Track]
		lanes := laneEnd[ti]
		lane := -1
		for li, end := range lanes {
			if end <= sp.StartNs {
				lane = li
				break
			}
		}
		if lane == -1 {
			lane = len(lanes)
			lanes = append(lanes, 0)
		}
		lanes[lane] = sp.EndNs()
		laneEnd[ti] = lanes
		if lane+1 > laneUsed[ti] {
			laneUsed[ti] = lane + 1
		}
		dur := float64(sp.DurNs) / 1e3
		ev := chromeEvent{
			Name: sp.Name,
			Cat:  sp.Track,
			Ph:   "X",
			Ts:   float64(sp.StartNs) / 1e3,
			Dur:  &dur,
			Pid:  1,
			Tid:  ti*laneWidth + lane,
		}
		if sp.JobID >= 0 {
			ev.Args = map[string]any{"job": sp.JobID}
		}
		events = append(events, ev)
	}
	for name, ti := range trackOf {
		for lane := 0; lane < laneUsed[ti]; lane++ {
			label := name
			if lane > 0 {
				label = fmt.Sprintf("%s#%d", name, lane+1)
			}
			events = append(events, chromeEvent{
				Name: "thread_name",
				Ph:   "M",
				Pid:  1,
				Tid:  ti*laneWidth + lane,
				Args: map[string]any{"name": label},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
