package event

import (
	"sort"
	"testing"

	"dvsync/internal/simtime"
)

// agendaAPI is the surface FuzzAgendaMatchesReference drives. *Engine
// implements it, and so does refAgenda, the test's reference model.
type agendaAPI interface {
	At(at simtime.Time, prio Priority, fn Handler) ID
	After(d simtime.Duration, prio Priority, fn Handler) ID
	Cancel(id ID) bool
	Run(horizon simtime.Time)
	Stop()
	Reset()
	Pending() int
	Fired() uint64
	Now() simtime.Time
	Lookup(id ID) (ScheduledEvent, bool)
}

// refAgenda is the reference model of the engine's agenda: a slice kept
// sorted by (at, prio, seq), popped from the front one event at a time.
// Cancel removes the entry outright, so there are no tombstones, no
// batches and no spills: whatever the engine does to go faster must
// produce exactly this dispatch sequence.
type refAgenda struct {
	now     simtime.Time
	seq     uint64
	fired   uint64
	stopped bool
	pending []refEvent
}

type refEvent struct {
	ScheduledEvent
	fn Handler
}

func refBefore(a, b ScheduledEvent) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.Seq < b.Seq
}

func (r *refAgenda) At(at simtime.Time, prio Priority, fn Handler) ID {
	if at < r.now {
		panic("ref: scheduling in the past")
	}
	r.seq++
	ev := refEvent{ScheduledEvent{At: at, Prio: prio, Seq: r.seq, ID: ID(r.seq)}, fn}
	i := sort.Search(len(r.pending), func(i int) bool { return refBefore(ev.ScheduledEvent, r.pending[i].ScheduledEvent) })
	r.pending = append(r.pending, refEvent{})
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = ev
	return ev.ID
}

func (r *refAgenda) After(d simtime.Duration, prio Priority, fn Handler) ID {
	return r.At(r.now.Add(d), prio, fn)
}

func (r *refAgenda) Cancel(id ID) bool {
	for i, ev := range r.pending {
		if ev.ID == id {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refAgenda) Run(horizon simtime.Time) {
	r.stopped = false
	for !r.stopped && len(r.pending) > 0 {
		ev := r.pending[0]
		if ev.At > horizon {
			r.now = horizon
			return
		}
		r.pending = append(r.pending[:0], r.pending[1:]...)
		r.now = ev.At
		r.fired++
		ev.fn(ev.At)
	}
}

func (r *refAgenda) Stop()  { r.stopped = true }
func (r *refAgenda) Reset() { *r = refAgenda{pending: r.pending[:0]} }

func (r *refAgenda) Pending() int      { return len(r.pending) }
func (r *refAgenda) Fired() uint64     { return r.fired }
func (r *refAgenda) Now() simtime.Time { return r.now }

func (r *refAgenda) Lookup(id ID) (ScheduledEvent, bool) {
	for _, ev := range r.pending {
		if ev.ID == id {
			return ev.ScheduledEvent, true
		}
	}
	return ScheduledEvent{}, false
}

// Script opcodes. A script is a byte string read front to back by both the
// top-level loop and by every handler as it fires, so the engine and the
// model consume identical bytes for as long as they dispatch identically.
const (
	opAt     = iota // prio, offset: At(now+offset)
	opAfter         // prio, offset: After(offset)
	opCancel        // target selector
	opRun           // horizon offset: Run(now+h)
	opRunAll        //
	opReset         //
	opStop          // outside Run: must not stop the next Run
	numOps
)

// Handler actions: a firing handler reads a count (0..3), then that many
// actions.
const (
	actAt     = iota // prio, offset: same instant when offset is 0
	actCancel        // target selector
	actStop          //
	actAfter         // prio, offset
	numActs
)

// Cancel target selectors at or above selUnknown name IDs never issued
// (255 is ID 0); below it they index the IDs issued since the last Reset,
// which covers pending, fired, already-canceled and same-batch targets.
const selUnknown = 250

// agendaDriver runs one script against one agenda implementation and logs
// every observable result.
type agendaDriver struct {
	ag   agendaAPI
	data []byte
	pos  int
	ids  []ID
	log  []observation
}

// observation is one logged result: what was observed (kind) and its
// values. Fields a kind does not use stay zero.
type observation struct {
	kind string // sched, fire, cancel, stop, state or lookup
	ev   ScheduledEvent
	now  simtime.Time
	id   ID
	n, m uint64 // state: pending and fired
	ok   bool   // cancel result, lookup hit
}

func (d *agendaDriver) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *agendaDriver) observe(o observation) { d.log = append(d.log, o) }

func (d *agendaDriver) schedule(after bool) {
	prio := Priority(d.next() % uint8(PriorityControl+1))
	off := simtime.Duration(d.next() % 8)
	var ev ScheduledEvent
	h := func(now simtime.Time) {
		d.observe(observation{kind: "fire", ev: ev, now: now})
		for n := d.next() % 4; n > 0; n-- {
			switch d.next() % numActs {
			case actAt:
				d.schedule(false)
			case actAfter:
				d.schedule(true)
			case actCancel:
				d.cancel()
			case actStop:
				d.ag.Stop()
				d.observe(observation{kind: "stop"})
			}
		}
	}
	var id ID
	if after {
		id = d.ag.After(off, prio, h)
	} else {
		id = d.ag.At(d.ag.Now().Add(off), prio, h)
	}
	ev, _ = d.ag.Lookup(id)
	d.ids = append(d.ids, id)
	d.observe(observation{kind: "sched", ev: ev, id: id})
}

func (d *agendaDriver) cancel() {
	sel := d.next()
	var id ID
	switch {
	case sel == 255:
		id = 0
	case sel >= selUnknown || len(d.ids) == 0:
		id = ID(len(d.ids) + 1 + int(sel%4))
	default:
		id = d.ids[int(sel)%len(d.ids)]
	}
	d.observe(observation{kind: "cancel", id: id, ok: d.ag.Cancel(id)})
}

// state logs the counters; with lookups it also logs the Lookup result
// of the most recently issued IDs.
func (d *agendaDriver) state(lookups bool) {
	d.observe(observation{kind: "state", now: d.ag.Now(), n: uint64(d.ag.Pending()), m: d.ag.Fired()})
	if !lookups {
		return
	}
	for _, id := range d.ids[max(0, len(d.ids)-64):] {
		ev, ok := d.ag.Lookup(id)
		d.observe(observation{kind: "lookup", ev: ev, id: id, ok: ok})
	}
}

// run executes the whole script, then drains the agenda. Every top-level
// step ends at a quiescent point; the ones after Run and Reset also check
// Lookup.
func (d *agendaDriver) run() []observation {
	for d.pos < len(d.data) {
		lookups := true
		switch d.next() % numOps {
		case opAt:
			d.schedule(false)
			lookups = false
		case opAfter:
			d.schedule(true)
			lookups = false
		case opCancel:
			d.cancel()
			lookups = false
		case opRun:
			d.ag.Run(d.ag.Now().Add(simtime.Duration(d.next() % 16)))
		case opRunAll:
			d.ag.Run(simtime.Never)
		case opReset:
			d.ag.Reset()
			d.ids = d.ids[:0]
		case opStop:
			d.ag.Stop()
			lookups = false
		}
		d.state(lookups)
	}
	d.ag.Run(simtime.Never)
	d.state(true)
	return d.log
}

// script assembles fuzz seeds readably.
type script []byte

func (s script) at(prio Priority, off byte) script    { return append(s, opAt, byte(prio), off) }
func (s script) after(prio Priority, off byte) script { return append(s, opAfter, byte(prio), off) }
func (s script) cancel(sel byte) script               { return append(s, opCancel, sel) }
func (s script) run(h byte) script                    { return append(s, opRun, h) }
func (s script) runAll() script                       { return append(s, opRunAll) }
func (s script) reset() script                        { return append(s, opReset) }
func (s script) stop() script                         { return append(s, opStop) }

// fires appends the bytes one firing handler reads: its action count and
// the actions' own bytes (built with the act* helpers).
func (s script) fires(actions ...[]byte) script {
	s = append(s, byte(len(actions)))
	for _, a := range actions {
		s = append(s, a...)
	}
	return s
}

func actSched(prio Priority, off byte) []byte { return []byte{actAt, byte(prio), off} }
func actCancelSel(sel byte) []byte            { return []byte{actCancel, sel} }
func actHalt() []byte                         { return []byte{actStop} }

// FuzzAgendaMatchesReference drives the engine and refAgenda through the
// same script of At/After, Cancel, Run, Stop (inside handlers too) and
// Reset calls, and requires identical logs: dispatch order as (at, prio,
// seq, id), every Cancel result, and Pending, Fired, Now and Lookup at
// every quiescent point.
func FuzzAgendaMatchesReference(f *testing.F) {
	// Same-instant ties across and within priority bands.
	f.Add([]byte(script{}.
		at(PriorityControl, 3).at(PriorityHardware, 3).at(PrioritySignal, 3).
		after(PriorityPipeline, 3).at(PriorityPipeline, 3).at(PriorityInput, 1).
		runAll()))
	// Batch spill: the first handler of an instant cancels a drained
	// same-instant event and schedules one in a band ahead of the rest of
	// the batch, which spills back into the heap.
	f.Add([]byte(script{}.
		at(PrioritySignal, 2).at(PriorityControl, 2).at(PriorityControl, 2).
		run(5).
		// id 1 fires, cancels id 3, schedules ids 4 and 5
		fires(actCancelSel(2), actSched(PriorityHardware, 0), actSched(PriorityPipeline, 0)).
		// ids 4 and 5 fire ahead of the spilled id 2
		fires().fires().fires().
		runAll()))
	// Cancel from inside a batch: the same-instant target already drained
	// (id 2), a fired event (id 1 itself), an already-canceled one (id 2
	// again), a pending later event (id 3) and unknown IDs.
	f.Add([]byte(script{}.
		at(PriorityHardware, 1).at(PriorityControl, 1).at(PriorityControl, 6).
		run(3).
		fires(actCancelSel(1), actCancelSel(0), actCancelSel(1)).
		cancel(2).cancel(2).cancel(252).cancel(255).
		runAll()))
	// Stop from inside a handler leaves the batch's tail pending; a
	// top-level Stop must not halt the next Run; Reset mid-script.
	f.Add([]byte(script{}.
		at(PriorityHardware, 0).at(PriorityPipeline, 0).at(PriorityControl, 0).
		run(0).
		fires(actHalt()).
		stop().run(0).
		fires().fires().
		at(PriorityInput, 7).reset().cancel(0).
		at(PrioritySignal, 4).runAll()))
	// Compaction: 80 pending events, 70 canceled, so tombstones pass 64 and
	// outnumber the live entries.
	compact := script{}
	for i := 0; i < 80; i++ {
		compact = compact.at(Priority(i%5), byte(i%8))
	}
	for i := 0; i < 70; i++ {
		compact = compact.cancel(byte(i))
	}
	f.Add([]byte(compact.runAll()))

	f.Fuzz(func(t *testing.T, data []byte) {
		got := (&agendaDriver{ag: NewEngine(), data: data}).run()
		want := (&agendaDriver{ag: &refAgenda{}, data: data}).run()
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("observation %d: engine %+v, reference %+v", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("engine logged %d observations, reference %d", len(got), len(want))
		}
	})
}
