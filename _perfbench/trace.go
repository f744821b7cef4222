package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Times are host nanoseconds since the
// tracer started. Spans of one request share Req; Lane is the goroutine
// (worker or connection) that ran it.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Req    int64  `json:"req"`
	Lane   int    `json:"lane"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span on lane 0 and returns its index.
func (t *tracer) begin(name, layer string, parent int, req int64) int {
	return t.beginOn(0, name, layer, parent, req)
}

// beginOn opens a span on the given lane.
func (t *tracer) beginOn(lane int, name, layer string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.list = append(t.list, span{Name: name, Layer: layer, Start: now, End: now,
		Parent: parent, Req: req, Lane: lane})
	return len(t.list) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.list[id].End = now
	return time.Duration(now - t.list[id].Start)
}

// spans returns a copy of every span recorded so far.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.list...)
}

// adopt merges spans recorded by a worker process whose tracer started at
// host time start, re-parenting its roots under parent.
func (t *tracer) adopt(spans []span, start time.Time, parent int, lane int) {
	if t == nil {
		return
	}
	off := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.list)
	for _, s := range spans {
		s.Start += off
		s.End += off
		s.Lane = lane
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.list = append(t.list, s)
	}
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans() {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d, n
}

// selfTimes returns each layer's self time: its spans' durations minus
// the part of each span that its child spans cover (children running
// concurrently on several lanes are merged, not double-counted).
func (t *tracer) selfTimes() map[string]time.Duration {
	all := t.spans()
	kids := make([][]int, len(all))
	for i, s := range all {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range all {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			ivs = append(ivs, [2]int64{max(all[k].Start, s.Start), min(all[k].End, s.End)})
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered(ivs))
	}
	return out
}

// covered is the length of the union of intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var n, end int64
	for _, iv := range ivs {
		if iv[1] <= end {
			continue
		}
		n += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return n
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	all := t.spans()
	evs := make([]event, len(all))
	for i, s := range all {
		evs[i] = event{Name: s.Name, Cat: s.Layer, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": i, "parent": s.Parent, "req": s.Req}}
	}
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
