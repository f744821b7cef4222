// Package trace records simulation runs as structured event logs — the
// equivalent of the Perfetto traces the paper's analysis is based on (§3.2)
// — and provides encoding and analysis passes over them.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dvsync/internal/simtime"
)

// SchemaVersion identifies the event vocabulary below. Version 1 is the
// seed vocabulary; version 2 added FrameUIDone (the UI→render stage split
// the observability layer reconstructs spans from); version 3 added the
// marker kinds FaultOnset, FaultEnd and DTVReAnchor, which put fault
// episodes and calibration re-anchors into the event stream itself so
// causal attribution (internal/obs Attribute) is a pure function of the
// trace. Consumers that persist or exchange traces embed this number
// (internal/obs stamps it into every Perfetto export) so a reader can
// tell which kinds it may encounter.
const SchemaVersion = 3

// EventKind classifies trace events.
type EventKind string

// Trace event kinds — the schema-versioned vocabulary. Every simulation
// event is one of these; internal/obs maps each recorded event into
// exactly one Perfetto span boundary, counter sample, or instant:
//
//	FrameStart → FrameUIDone → FrameQueued → FrameLatched → FramePresent
//
// bound the per-frame UI / render / queue-wait / display spans, while
// HWVSync, Jank, RateChange, Fallback and EdgeMissed describe the panel
// and supervisor.
const (
	// HWVSync is a hardware VSync edge.
	HWVSync EventKind = "hw-vsync"
	// FrameStart marks a frame's UI-stage begin.
	FrameStart EventKind = "frame-start"
	// FrameUIDone marks the UI stage handing off to the render service
	// (schema v2; absent from v1 traces, where the UI/render split is
	// unknown and span reconstruction merges the two stages).
	FrameUIDone EventKind = "frame-ui-done"
	// FrameQueued marks a rendered buffer entering the queue.
	FrameQueued EventKind = "frame-queued"
	// FrameLatched marks the panel latching a buffer.
	FrameLatched EventKind = "frame-latched"
	// FramePresent marks the present fence.
	FramePresent EventKind = "frame-present"
	// Jank marks a repeated-frame edge.
	Jank EventKind = "jank"
	// RateChange marks an LTPO refresh-rate switch.
	RateChange EventKind = "rate-change"
	// Fallback marks a supervised runtime switch between D-VSync and VSync
	// (the §4.5 channel driven by the health monitor).
	Fallback EventKind = "fallback"
	// EdgeMissed marks a refresh the panel skipped under an injected
	// missed-VSync fault.
	EdgeMissed EventKind = "edge-missed"
	// FaultOnset marks an injected fault episode opening (schema v3). The
	// Detail field carries "class=<name> episode=<index> severity=<s>" so
	// attribution can name the episode without reaching outside the trace.
	FaultOnset EventKind = "fault-onset"
	// FaultEnd marks a fault episode closing (schema v3); Detail carries
	// "class=<name> episode=<index>".
	FaultEnd EventKind = "fault-end"
	// DTVReAnchor marks the DTV calibration-error bound forcing a re-anchor
	// of the decoupled timestamp stream (schema v3).
	DTVReAnchor EventKind = "dtv-reanchor"
)

// Event is one trace record. Fields are denormalised for easy filtering.
type Event struct {
	// At is the event timestamp (ns on the simulation clock).
	At simtime.Time `json:"at"`
	// Kind is the event type.
	Kind EventKind `json:"kind"`
	// Frame is the frame sequence number (-1 when not frame-related).
	Frame int `json:"frame"`
	// Decoupled marks FPE-triggered frames.
	Decoupled bool `json:"decoupled,omitempty"`
	// DTimestamp is the issued display prediction (0 on the VSync path).
	DTimestamp simtime.Time `json:"dts,omitempty"`
	// EdgeSeq is the panel edge index for edge-aligned events.
	EdgeSeq uint64 `json:"edge,omitempty"`
	// Hz is the refresh rate for RateChange events.
	Hz int `json:"hz,omitempty"`
	// Detail carries event-specific context (fallback direction and reason).
	Detail string `json:"detail,omitempty"`
}

// Sink is the event-capture interface the simulator drives: the plain
// append-everything Recorder and internal/flight's fixed-capacity ring
// both implement it. Add must accept events in non-decreasing time order;
// Events returns the retained window oldest-first (a ring may retain
// fewer events than were added).
type Sink interface {
	Add(Event)
	Reserve(int)
	Reset()
	Events() []Event
	Len() int
}

// Recorder accumulates events in timestamp order (append order must be
// non-decreasing, which the single-threaded simulation guarantees).
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add appends one event.
//
//dvlint:hotpath called for every recorded simulation event
func (r *Recorder) Add(ev Event) {
	if n := len(r.events); n > 0 && ev.At < r.events[n-1].At {
		panic(fmt.Sprintf("trace: out-of-order event at %v after %v", ev.At, r.events[n-1].At))
	}
	r.events = append(r.events, ev)
}

// Reserve grows the recorder's capacity so the next n Add calls do not
// reallocate. Simulations know their frame count up front, so they can
// size the buffer once instead of letting append double it repeatedly.
//
//dvlint:hotpath sizing call on the recording path
func (r *Recorder) Reserve(n int) {
	if free := cap(r.events) - len(r.events); free >= n {
		return
	}
	//dvlint:ignore hotalloc Reserve is the preallocation point itself; it grows once so Add never does
	grown := make([]Event, len(r.events), len(r.events)+n)
	copy(grown, r.events)
	r.events = grown
}

// Reset discards recorded events while keeping the allocated buffer, so a
// recorder can be reused across runs without reallocating.
//
//dvlint:hotpath reused across runs on the recording path
func (r *Recorder) Reset() { r.events = r.events[:0] }

// Events returns the recorded events.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// WriteJSONL encodes the trace as one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return WriteEventsJSONL(w, r.events)
}

// WriteEventsJSONL encodes an event slice as one JSON object per line —
// the same format WriteJSONL emits, available to any Sink's Events().
func WriteEventsJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("trace: encode: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a JSONL trace. Lines grow without bound (a bufio.Reader
// reassembles fragments, so no fixed token limit applies — large traces and
// future span payloads with long detail strings read fine), blank lines are
// skipped, and a malformed record reports its 1-based line number.
func ReadJSONL(rd io.Reader) (*Recorder, error) {
	r := NewRecorder()
	br := bufio.NewReader(rd)
	var partial []byte
	for line := 1; ; line++ {
		chunk, err := br.ReadBytes('\n')
		if len(chunk) > 0 {
			partial = append(partial, chunk...)
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("trace: line %d: read: %w", line, err)
		}
		done := err == io.EOF
		raw := bytes.TrimSpace(partial)
		if len(raw) > 0 {
			var ev Event
			if jerr := json.Unmarshal(raw, &ev); jerr != nil {
				return nil, fmt.Errorf("trace: line %d: malformed event: %w", line, jerr)
			}
			r.events = append(r.events, ev)
		}
		partial = partial[:0]
		if done {
			break
		}
	}
	sort.SliceStable(r.events, func(i, j int) bool { return r.events[i].At < r.events[j].At })
	return r, nil
}

// Summary is the analysis pass over a trace.
type Summary struct {
	// Events counts records by kind.
	Events map[EventKind]int
	// Frames is the number of distinct presented frames.
	Frames int
	// Janks is the repeated-frame count.
	Janks int
	// Span is first→last event time.
	Span simtime.Duration
	// MeanQueueLatency averages queued→latched per frame (ms).
	MeanQueueLatency float64
	// DecoupledShare is the fraction of started frames that were
	// FPE-triggered.
	DecoupledShare float64
}

// Summarize computes the analysis pass.
func Summarize(r *Recorder) Summary {
	s := Summary{Events: map[EventKind]int{}}
	if r.Len() == 0 {
		return s
	}
	queued := map[int]simtime.Time{}
	var waitSum simtime.Duration
	var waits int
	starts, decoupled := 0, 0
	for _, ev := range r.events {
		s.Events[ev.Kind]++
		switch ev.Kind {
		case FrameStart:
			starts++
			if ev.Decoupled {
				decoupled++
			}
		case FrameQueued:
			queued[ev.Frame] = ev.At
		case FrameLatched:
			if q, ok := queued[ev.Frame]; ok {
				waitSum += ev.At.Sub(q)
				waits++
			}
		case FramePresent:
			s.Frames++
		case Jank:
			s.Janks++
		}
	}
	s.Span = r.events[len(r.events)-1].At.Sub(r.events[0].At)
	if waits > 0 {
		s.MeanQueueLatency = float64(waitSum) / float64(waits) / float64(simtime.Millisecond)
	}
	if starts > 0 {
		s.DecoupledShare = float64(decoupled) / float64(starts)
	}
	return s
}

// RenderTimeline draws an ASCII view of the trace: one column per VSync
// period, lanes for frame starts and the latch/jank stream — the quick
// visual graphics engineers get from Perfetto, in the terminal.
func RenderTimeline(r *Recorder, maxCols int) string {
	if r.Len() == 0 {
		return "(empty trace)\n"
	}
	if maxCols <= 0 {
		maxCols = 100
	}
	// Derive the period from consecutive HW edges.
	var edges []simtime.Time
	for _, ev := range r.events {
		if ev.Kind == HWVSync {
			edges = append(edges, ev.At)
		}
	}
	if len(edges) < 2 {
		return "(no VSync edges in trace)\n"
	}
	period := edges[1].Sub(edges[0])
	cols := len(edges)
	if cols > maxCols {
		cols = maxCols
	}
	col := func(t simtime.Time) (int, bool) {
		c := int(t.Sub(edges[0]) / simtime.Duration(period))
		if c < 0 || c >= cols {
			return 0, false
		}
		return c, true
	}
	exec := bytesOf(cols)
	disp := bytesOf(cols)
	for _, ev := range r.events {
		c, ok := col(ev.At)
		if !ok {
			continue
		}
		switch ev.Kind {
		case FrameStart:
			mark := byte('e')
			if ev.Decoupled {
				mark = 'd'
			}
			if exec[c] == '.' || exec[c] == 'e' {
				exec[c] = mark
			}
		case FrameLatched:
			disp[c] = '#'
		case Jank:
			disp[c] = 'J'
		case RateChange:
			disp[c] = 'R'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "period %.3fms, %d columns (one per VSync period)\n",
		period.Milliseconds(), cols)
	fmt.Fprintf(&b, "execute %s\n", exec)
	fmt.Fprintf(&b, "display %s\n", disp)
	b.WriteString("legend: e frame start, d decoupled start, # latch, J jank, R rate change\n")
	return b.String()
}

func bytesOf(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = '.'
	}
	return out
}
