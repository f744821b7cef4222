// Package event implements the deterministic discrete-event engine that
// drives every simulation in this repository.
//
// The engine maintains an agenda of timestamped events ordered by (time,
// priority, sequence). Sequence numbers make scheduling fully deterministic:
// two events at the same instant and priority fire in the order they were
// scheduled, so repeated runs with the same seed produce identical traces.
//
// Its whole discipline is schedule (At, After), dispatch (Run), stop (Stop)
// and reset (Reset). Nothing is ever cancelled: a run ends by stopping the
// engine, and the next run starts from Reset, which drops whatever was
// still scheduled. Periodic sources (the panel's edges) are handlers that
// schedule their own successor.
//
// Every engine operation runs inside the simulation loop, so the whole
// package is held to the hot-path allocation discipline.
//
//dvlint:hotpath the agenda is exercised by every simulated event
package event

import (
	"fmt"

	"dvsync/internal/simtime"
)

// Priority orders events that share a timestamp. Lower values fire first.
// The bands mirror the hardware/software layering of a real rendering stack:
// the panel latches before software reacts to the same VSync edge.
type Priority int

const (
	// PriorityHardware is used by panel refresh / HW-VSync events.
	PriorityHardware Priority = iota
	// PrioritySignal is used by software VSync distribution.
	PrioritySignal
	// PriorityPipeline is used by pipeline stage completions.
	PriorityPipeline
	// PriorityInput is used by synthetic input delivery.
	PriorityInput
	// PriorityControl is used by controllers, calibration and bookkeeping.
	PriorityControl
)

// Handler is the callback invoked when an event fires. now is the event's
// timestamp, which is also the engine's current time for the duration of the
// call.
type Handler func(now simtime.Time)

// item is one scheduled event.
type item struct {
	at   simtime.Time
	prio Priority
	seq  uint64
	fn   Handler
}

// agenda is a binary min-heap of items under the (at, prio, seq) order.
// The order is total — sequence numbers are unique — so the dispatch order
// is a function of the scheduled items alone, never of the heap's shape.
type agenda []*item

// before reports whether a fires before b.
func before(a, b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// push adds an item, sifting it up from a new leaf.
func (a *agenda) push(it *item) {
	h := append(*a, it)
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !before(it, h[p]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = it
	*a = h
}

// pop removes and returns the earliest item. The agenda must be non-empty.
func (a *agenda) pop() *item {
	h := *a
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		h.down(0)
	}
	*a = h
	return top
}

// down sifts a[i] toward the leaves until both children sort after it.
func (a agenda) down(i int) {
	it := a[i]
	n := len(a)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(a[r], a[c]) {
			c = r
		}
		if !before(a[c], it) {
			break
		}
		a[i] = a[c]
		i = c
	}
	a[i] = it
}

// DefaultInstantLimit is the no-progress watchdog bound: the maximum number
// of events the engine dispatches at a single instant before concluding the
// agenda is stuck in a zero-delay loop. Legitimate simulations dispatch at
// most a few dozen events per instant; the default leaves orders of
// magnitude of headroom.
const DefaultInstantLimit = 1 << 16

// WatchdogError reports a tripped no-progress watchdog. It carries the
// last-dispatched event's identity so the offending scheduling loop can be
// diagnosed from the error alone.
type WatchdogError struct {
	// At is the instant the clock stopped advancing.
	At simtime.Time
	// Dispatched is how many events fired at that instant.
	Dispatched int
	// LastPriority and LastSeq identify the last-dispatched event.
	LastPriority Priority
	LastSeq      uint64
}

// Error implements error. The text enters Result.WatchdogTripped and the
// digests over it, so it keeps an id= field, which repeats the sequence
// number.
func (e *WatchdogError) Error() string {
	//dvlint:ignore hotalloc error formatting runs once, after the watchdog has already halted the run
	return fmt.Sprintf(
		"event: no-progress watchdog: %d events dispatched at t=%v without the clock advancing "+
			"(last event: priority=%d seq=%d id=%d)",
		e.Dispatched, e.At, int(e.LastPriority), e.LastSeq, e.LastSeq)
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; simulations are deterministic sequential programs.
type Engine struct {
	now     simtime.Time
	seq     uint64
	events  agenda
	stopped bool
	fired   uint64
	// live counts scheduled events that have not fired: the heap plus the
	// undispatched remainder of the current batch.
	live int

	// free recycles dispatched agenda items: a simulation schedules one
	// event per pipeline hop per frame, and without the free list every
	// hop is a fresh allocation. Items enter after dispatch (or Reset) and
	// are reused by At.
	free []*item
	// batch is the reused per-instant dispatch buffer: Run drains every
	// event sharing the earliest timestamp into it with one burst of heap
	// pops, then dispatches straight off the slice instead of interleaving
	// a pop (and its free-list churn) with every handler call. It is empty
	// whenever Run returns.
	batch []*item

	instantLimit int
	instantAt    simtime.Time
	instantFired int
	wderr        *WatchdogError
}

// NewEngine returns an engine positioned at t = 0 with an empty agenda.
func NewEngine() *Engine {
	//dvlint:ignore hotalloc one-time engine construction, not a per-event cost
	return &Engine{instantLimit: DefaultInstantLimit}
}

// SetInstantLimit overrides the no-progress watchdog bound (events per
// instant). Non-positive limits panic: the watchdog cannot be disabled,
// only widened.
func (e *Engine) SetInstantLimit(n int) {
	if n < 1 {
		panic(fmt.Sprintf("event: non-positive instant limit %d", n))
	}
	e.instantLimit = n
}

// Err returns the watchdog error of a stalled run, or nil after clean runs.
func (e *Engine) Err() error {
	if e.wderr == nil {
		return nil
	}
	return e.wderr
}

// Now returns the engine's current virtual time.
func (e *Engine) Now() simtime.Time { return e.now }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return e.live }

// Fired returns the total number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at the given instant with the given priority.
// Scheduling in the past is a programming error and panics.
func (e *Engine) At(at simtime.Time, prio Priority, fn Handler) {
	if at < e.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("event: nil handler")
	}
	e.seq++
	var it *item
	if n := len(e.free); n > 0 {
		it = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*it = item{at: at, prio: prio, seq: e.seq, fn: fn}
	} else {
		//dvlint:ignore hotalloc free-list grow path: each item is allocated once and recycled forever after
		it = &item{at: at, prio: prio, seq: e.seq, fn: fn}
	}
	e.events.push(it)
	e.live++
}

// recycle returns an item to the free list. The caller guarantees it has
// left both the heap and the batch. The handler reference is
// dropped so the closure (and whatever it captures) is not kept alive by
// the pool.
func (e *Engine) recycle(it *item) {
	it.fn = nil
	e.free = append(e.free, it)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d simtime.Duration, prio Priority, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("event: negative delay %v", d))
	}
	e.At(e.now.Add(d), prio, fn)
}

// Stop makes the current Run call return once the in-flight event handler
// completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the last Run call ended via Stop.
func (e *Engine) Stopped() bool { return e.stopped }

// runInstant drains every event scheduled at instant t into the reused
// batch slice with one burst of heap pops, then dispatches from the slice.
// Dispatch order is byte-identical to a pop-per-event loop: before each
// batch entry fires, the heap head is checked for a same-instant event a
// previous handler scheduled that sorts earlier (a lower priority band; a
// smaller sequence in the same band is impossible, new events get larger
// sequences, but the comparison is kept total); if one exists the remaining
// batch spills back into the heap and the outer loop re-drains the instant.
func (e *Engine) runInstant(t simtime.Time) {
	for len(e.events) > 0 && e.events[0].at == t {
		e.batch = append(e.batch, e.events.pop())
	}
	e.now = t
	for i := 0; i < len(e.batch); i++ {
		it := e.batch[i]
		if len(e.events) > 0 && before(e.events[0], it) {
			e.spill(i)
			return
		}
		e.live--
		if t == e.instantAt {
			e.instantFired++
		} else {
			e.instantAt, e.instantFired = t, 1
		}
		e.fired++
		fn, prio, seq := it.fn, it.prio, it.seq
		// Recycle before dispatch: the handler may schedule new events, and
		// letting it reuse this slot keeps the steady-state agenda footprint
		// at the live-event count. All fields needed afterwards were copied.
		e.batch[i] = nil
		e.recycle(it)
		fn(t)
		if e.instantFired >= e.instantLimit && e.wderr == nil {
			// The clock has not advanced for instantLimit dispatches: a
			// zero-delay scheduling loop. Record the offender and halt.
			//dvlint:ignore hotalloc the watchdog trips at most once and ends the run
			e.wderr = &WatchdogError{
				At:           t,
				Dispatched:   e.instantFired,
				LastPriority: prio,
				LastSeq:      seq,
			}
			e.stopped = true
		}
		if e.stopped {
			// Stop (or the watchdog) must leave undispatched events pending:
			// callers that inspect the agenda after stopping expect them
			// back on it.
			e.spill(i + 1)
			return
		}
	}
	e.batch = e.batch[:0]
}

// spill returns batch[i:] to the heap and empties the batch; the entries
// before i have been dispatched and are already nil.
func (e *Engine) spill(i int) {
	for _, it := range e.batch[i:] {
		e.events.push(it)
	}
	clear(e.batch[i:])
	e.batch = e.batch[:0]
}

// Run dispatches events in order until the agenda is empty, Stop is called,
// or the next event would fire after the horizon. The engine's clock is left
// at the last dispatched event (or at the horizon when it ends the run).
func (e *Engine) Run(horizon simtime.Time) {
	if e.wderr != nil {
		// A tripped watchdog poisons the engine: the agenda still holds the
		// runaway loop, so resuming would stall again immediately.
		return
	}
	e.stopped = false
	for !e.stopped && len(e.events) > 0 {
		next := e.events[0].at
		if next > horizon {
			e.now = horizon
			return
		}
		e.runInstant(next)
	}
}

// Reset returns the engine to its as-constructed condition — clock at zero,
// empty agenda, zeroed counters, watchdog re-armed — while keeping the item
// free list and the heap and batch buffers warm, so a reused engine
// schedules its next run without allocating. A Reset engine dispatches
// exactly as a NewEngine does, so pooled runs match fresh ones.
func (e *Engine) Reset() {
	for i, it := range e.events {
		e.events[i] = nil
		e.recycle(it)
	}
	e.events = e.events[:0]
	// The batch is empty whenever Run returns, unless a handler panicked.
	for i, it := range e.batch {
		e.batch[i] = nil
		if it != nil {
			e.recycle(it)
		}
	}
	e.batch = e.batch[:0]
	e.live = 0
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.fired = 0
	e.instantAt = 0
	e.instantFired = 0
	e.wderr = nil
}

// RunAll dispatches events until none remain or Stop is called.
func (e *Engine) RunAll() { e.Run(simtime.Never) }
