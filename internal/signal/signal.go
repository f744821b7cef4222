// Package signal implements the VSync signal distributor: the software
// layer that turns hardware VSync edges into VSync-app, the signal that
// triggers the app's UI thread on the classic rendering path (§2).
//
// VSync-app is the only software signal a run needs, and it wakes one
// handler, the simulator's UI-thread trigger. The render stage needs no
// signal of its own here: the pipeline chains it to UI completion, the
// panel's edge consumer latches, and the Frame Pre-Executor starts
// decoupled frames through its pipeline view rather than through a signal
// (§4.1–4.3). VSync-app fires at a fixed offset after each hardware edge;
// the handler receives the delivery timestamp.
package signal

import (
	"fmt"

	"dvsync/internal/event"
	"dvsync/internal/simtime"
)

// Distributor derives VSync-app from hardware edges.
type Distributor struct {
	engine  *event.Engine
	offset  simtime.Duration
	handler event.Handler
	delay   func(at simtime.Time) simtime.Duration
}

// NewDistributor creates a distributor that delivers VSync-app to h offset
// after each hardware edge (zero: at the edge itself). A negative offset
// panics.
func NewDistributor(e *event.Engine, offset simtime.Duration, h event.Handler) *Distributor {
	if offset < 0 {
		panic(fmt.Sprintf("signal: negative VSync-app offset %v", offset))
	}
	return &Distributor{engine: e, offset: offset, handler: h}
}

// SetDelay installs a per-delivery delay hook — the fault-injection point
// for clock drift between the panel and the software VSync distributor
// (internal/fault). Negative return values are ignored; the hook only ever
// postpones a signal past its nominal offset. It is consulted once per
// edge.
func (d *Distributor) SetDelay(fn func(at simtime.Time) simtime.Duration) {
	d.delay = fn
}

// OnHWEdge is wired to the panel: for each hardware edge it delivers or
// schedules VSync-app. Register it with Panel.OnEdge.
//
//dvlint:hotpath runs once per hardware VSync edge
func (d *Distributor) OnHWEdge(now simtime.Time, _ uint64, _ simtime.Duration) {
	off := d.offset
	if d.delay != nil {
		if x := d.delay(now); x > 0 {
			off += x
		}
	}
	if off == 0 {
		d.handler(now)
		return
	}
	d.engine.At(now.Add(off), event.PrioritySignal, d.handler)
}
