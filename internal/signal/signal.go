// Package signal implements the VSync signal distributor: the software
// layer that turns hardware VSync edges into the per-stage software signals
// (VSync-app, VSync-rs, VSync-sf) that drive the classic rendering pipeline
// (§2), and that D-VSync bypasses with its own D-VSync events (§4.1).
//
// Each software signal fires at a fixed offset after the hardware edge, at
// the configured divisor of the hardware rate. Subscribers receive the
// signal timestamp plus the hardware edge it derives from.
package signal

import (
	"fmt"

	"dvsync/internal/event"
	"dvsync/internal/simtime"
)

// Kind identifies a software VSync signal.
type Kind int

// Software VSync signal kinds.
const (
	// VSyncApp triggers the app UI thread (input handling + UI logic).
	VSyncApp Kind = iota
	// VSyncRS triggers the render service / render thread.
	VSyncRS
	// VSyncSF triggers surface compositing (SurfaceFlinger on Android).
	VSyncSF
	// DVSync is the decoupled event injected by the Frame Pre-Executor.
	DVSync

	// numKinds sizes the distributor's per-kind arrays.
	numKinds = iota
)

// known reports whether k is one of the signal kinds above.
func (k Kind) known() bool { return k >= 0 && k < numKinds }

// String names the signal like the paper's figures.
func (k Kind) String() string {
	switch k {
	case VSyncApp:
		return "VSync-app"
	case VSyncRS:
		return "VSync-rs"
	case VSyncSF:
		return "VSync-sf"
	case DVSync:
		return "D-VSync"
	}
	return fmt.Sprintf("signal(%d)", int(k))
}

// Event is a delivered signal.
type Event struct {
	// Kind is the signal type.
	Kind Kind
	// At is the delivery timestamp.
	At simtime.Time
	// HWEdge is the hardware VSync edge this signal derives from (for
	// D-VSync events, the most recent edge before injection).
	HWEdge simtime.Time
	// EdgeSeq is the hardware edge index.
	EdgeSeq uint64
	// Period is the refresh period in force.
	Period simtime.Duration
}

// Listener receives signal events.
type Listener func(Event)

// Distributor fans hardware edges out to offset software signals.
type Distributor struct {
	engine    *event.Engine
	offsets   [numKinds]simtime.Duration
	listeners [numKinds][]Listener
	delivered [numKinds]uint64
	delay     func(k Kind, at simtime.Time) simtime.Duration
}

// NewDistributor creates a distributor with the given per-signal offsets.
// A missing offset defaults to zero (the signal fires at the edge itself).
// An unknown kind or a negative offset panics.
func NewDistributor(e *event.Engine, offsets map[Kind]simtime.Duration) *Distributor {
	d := &Distributor{engine: e}
	for k, off := range offsets {
		if !k.known() {
			panic(fmt.Sprintf("signal: offset for unknown kind %d", int(k)))
		}
		if off < 0 {
			panic(fmt.Sprintf("signal: negative offset for %v", k))
		}
		d.offsets[k] = off
	}
	return d
}

// Subscribe registers a listener for one signal kind.
func (d *Distributor) Subscribe(k Kind, l Listener) {
	d.listeners[k] = append(d.listeners[k], l)
}

// Offset returns the configured offset of a signal.
func (d *Distributor) Offset(k Kind) simtime.Duration { return d.offsets[k] }

// SetDelay installs a per-delivery delay hook — the fault-injection point
// for clock drift between the panel and the software VSync distributor
// (internal/fault). Negative return values are ignored; the hook only ever
// postpones a signal past its nominal offset.
func (d *Distributor) SetDelay(fn func(k Kind, at simtime.Time) simtime.Duration) {
	d.delay = fn
}

// Delivered returns how many events of kind k have been delivered.
func (d *Distributor) Delivered(k Kind) uint64 { return d.delivered[k] }

// Reset clears the delivery counters. Subscriptions, offsets and the
// delay hook persist; the caller's engine reset has already dropped any
// scheduled deliveries.
func (d *Distributor) Reset() {
	d.delivered = [numKinds]uint64{}
}

// fanoutKinds are the software signals derived from each hardware edge, in
// delivery order. Hoisted so OnHWEdge does not rebuild the slice per edge.
var fanoutKinds = [...]Kind{VSyncApp, VSyncRS, VSyncSF}

// OnHWEdge is wired to the panel: for each hardware edge it schedules the
// offset software signals. Register it with Panel.OnEdge.
//
//dvlint:hotpath runs once per hardware VSync edge
func (d *Distributor) OnHWEdge(now simtime.Time, seq uint64, period simtime.Duration) {
	for _, k := range fanoutKinds {
		ls := d.listeners[k]
		if len(ls) == 0 {
			continue
		}
		off := d.offsets[k]
		if d.delay != nil {
			if x := d.delay(k, now); x > 0 {
				off += x
			}
		}
		ev := Event{Kind: k, At: now.Add(off), HWEdge: now, EdgeSeq: seq, Period: period}
		if off == 0 {
			d.deliver(ev)
			continue
		}
		// A FIFO-plus-persistent-handler cannot replace this closure: the
		// fault delay hook makes per-kind delivery times non-monotone, so
		// dispatch order need not match schedule order. Zero-offset signals
		// (the steady-state benchmark path) never reach here.
		//dvlint:ignore hotalloc delayed delivery must capture its event; only non-zero-offset configs pay it
		d.engine.At(ev.At, event.PrioritySignal, func(simtime.Time) { d.deliver(ev) })
	}
}

// InjectDVSync delivers a decoupled D-VSync event immediately. The FPE calls
// this when it decides pre-rendering is feasible (§4.3).
func (d *Distributor) InjectDVSync(now, hwEdge simtime.Time, edgeSeq uint64, period simtime.Duration) {
	d.deliver(Event{Kind: DVSync, At: now, HWEdge: hwEdge, EdgeSeq: edgeSeq, Period: period})
}

func (d *Distributor) deliver(ev Event) {
	d.delivered[ev.Kind]++
	for _, l := range d.listeners[ev.Kind] {
		l(ev)
	}
}
