package main

import (
	"sort"
	"sync"
	"time"
)

// span is one interval recorded from the benchmark's side of a layer
// boundary. Parent is the id of the span that caused it, 0 for a root.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so the untraced run pays one branch per call site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent,
		StartNs: start.Sub(r.epoch).Nanoseconds(),
		EndNs:   end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span whose end is set later by end; children recorded in
// between name it as their parent.
func (r *recorder) begin(name string, parent int) int {
	now := time.Now()
	return r.add(name, parent, now, now)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].EndNs = now.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

// call records fn as one span under parent.
func (r *recorder) call(name string, parent int, fn func()) {
	id := r.begin(name, parent)
	fn()
	r.end(id)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes reports, per span name, the summed duration and the summed self
// time: a span's duration minus the part of its interval that its child
// spans cover (overlapping children are not counted twice).
func selfTimes(spans []span) []selfStat {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfStat{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.EndNs - s.StartNs
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	edge := parent.StartNs
	for _, k := range kids {
		lo, hi := max(k.StartNs, edge), min(k.EndNs, parent.EndNs)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}
