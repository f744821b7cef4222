// Package signal implements the VSync signal distributor: the software
// layer that turns hardware VSync edges into VSync-app, the signal that
// triggers the app's UI thread on the classic rendering path (§2).
//
// VSync-app is the only software signal a run subscribes to. The render
// stage needs none of its own here: the pipeline chains it to UI
// completion, the panel's edge consumer latches, and the Frame
// Pre-Executor starts decoupled frames through its pipeline view rather
// than through a signal (§4.1–4.3). VSync-app fires at a fixed offset
// after each hardware edge; subscribers receive the signal timestamp plus
// the hardware edge it derives from.
package signal

import (
	"fmt"

	"dvsync/internal/event"
	"dvsync/internal/simtime"
)

// Event is a delivered VSync-app signal.
type Event struct {
	// At is the delivery timestamp.
	At simtime.Time
	// HWEdge is the hardware VSync edge this signal derives from.
	HWEdge simtime.Time
	// EdgeSeq is the hardware edge index.
	EdgeSeq uint64
	// Period is the refresh period in force.
	Period simtime.Duration
}

// Listener receives signal events.
type Listener func(Event)

// Distributor derives VSync-app from hardware edges.
type Distributor struct {
	engine    *event.Engine
	offset    simtime.Duration
	listeners []Listener
	delay     func(at simtime.Time) simtime.Duration
}

// NewDistributor creates a distributor that delivers VSync-app offset
// after each hardware edge (zero: at the edge itself). A negative offset
// panics.
func NewDistributor(e *event.Engine, offset simtime.Duration) *Distributor {
	if offset < 0 {
		panic(fmt.Sprintf("signal: negative VSync-app offset %v", offset))
	}
	return &Distributor{engine: e, offset: offset}
}

// Subscribe registers a VSync-app listener.
func (d *Distributor) Subscribe(l Listener) {
	d.listeners = append(d.listeners, l)
}

// SetDelay installs a per-delivery delay hook — the fault-injection point
// for clock drift between the panel and the software VSync distributor
// (internal/fault). Negative return values are ignored; the hook only ever
// postpones a signal past its nominal offset. It is consulted once per
// edge, and only while a listener is subscribed.
func (d *Distributor) SetDelay(fn func(at simtime.Time) simtime.Duration) {
	d.delay = fn
}

// OnHWEdge is wired to the panel: for each hardware edge it delivers or
// schedules VSync-app. Register it with Panel.OnEdge.
//
//dvlint:hotpath runs once per hardware VSync edge
func (d *Distributor) OnHWEdge(now simtime.Time, seq uint64, period simtime.Duration) {
	if len(d.listeners) == 0 {
		return
	}
	off := d.offset
	if d.delay != nil {
		if x := d.delay(now); x > 0 {
			off += x
		}
	}
	ev := Event{At: now.Add(off), HWEdge: now, EdgeSeq: seq, Period: period}
	if off == 0 {
		d.deliver(ev)
		return
	}
	// A FIFO-plus-persistent-handler cannot replace this closure: the
	// fault delay hook makes delivery times non-monotone across edges, so
	// dispatch order need not match schedule order. Zero-offset signals
	// (the steady-state benchmark path) never reach here.
	//dvlint:ignore hotalloc delayed delivery must capture its event; only non-zero-offset configs pay it
	d.engine.At(ev.At, event.PrioritySignal, func(simtime.Time) { d.deliver(ev) })
}

func (d *Distributor) deliver(ev Event) {
	for _, l := range d.listeners {
		l(ev)
	}
}
