package event

import (
	"sort"
	"testing"

	"dvsync/internal/simtime"
)

// agendaAPI is the surface FuzzAgendaMatchesReference drives. *Engine
// implements it, and so does refAgenda, the test's reference model.
type agendaAPI interface {
	At(at simtime.Time, prio Priority, fn Handler)
	Run(horizon simtime.Time)
	Stop()
	Reset()
	Fired() uint64
	Now() simtime.Time
}

// refAgenda is the reference model of the engine's agenda: a slice kept
// sorted by (at, prio, seq), popped from the front one event at a time.
// There are no batches and no spills: whatever the engine does to go
// faster must produce exactly this dispatch sequence.
type refAgenda struct {
	now     simtime.Time
	seq     uint64
	fired   uint64
	stopped bool
	pending []refEvent
}

type refEvent struct {
	at   simtime.Time
	prio Priority
	seq  uint64
	fn   Handler
}

func refBefore(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (r *refAgenda) At(at simtime.Time, prio Priority, fn Handler) {
	if at < r.now {
		panic("ref: scheduling in the past")
	}
	r.seq++
	ev := refEvent{at: at, prio: prio, seq: r.seq, fn: fn}
	i := sort.Search(len(r.pending), func(i int) bool { return refBefore(ev, r.pending[i]) })
	r.pending = append(r.pending, refEvent{})
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = ev
}

func (r *refAgenda) Run(horizon simtime.Time) {
	r.stopped = false
	for !r.stopped && len(r.pending) > 0 {
		ev := r.pending[0]
		if ev.at > horizon {
			r.now = horizon
			return
		}
		r.pending = append(r.pending[:0], r.pending[1:]...)
		r.now = ev.at
		r.fired++
		ev.fn(ev.at)
	}
}

func (r *refAgenda) Stop()  { r.stopped = true }
func (r *refAgenda) Reset() { *r = refAgenda{pending: r.pending[:0]} }

func (r *refAgenda) Fired() uint64     { return r.fired }
func (r *refAgenda) Now() simtime.Time { return r.now }

// Script opcodes. A script is a byte string read front to back by both the
// top-level loop and by every handler as it fires, so the engine and the
// model consume identical bytes for as long as they dispatch identically.
const (
	opAt     = iota // prio, offset: At(now+offset)
	opRun           // horizon offset: Run(now+h)
	opRunAll        //
	opReset         //
	opStop          // outside Run: must not stop the next Run
	numOps
)

// Handler actions: a firing handler reads a count (0..3), then that many
// actions.
const (
	actAt   = iota // prio, offset: same instant when offset is 0
	actStop        //
	numActs
)

// agendaDriver runs one script against one agenda implementation and logs
// every observable result.
type agendaDriver struct {
	ag   agendaAPI
	data []byte
	pos  int
	n    int // events scheduled since the last Reset
	log  []observation
}

// scheduled is what agendaDriver knows of one event it scheduled: its
// instant, its band and its number since the last Reset. Handlers log it
// as they fire, so the logs compare dispatch order.
type scheduled struct {
	at   simtime.Time
	prio Priority
	n    int
}

// observation is one logged result: what was observed (kind) and its
// values. Fields a kind does not use stay zero.
type observation struct {
	kind string // sched, fire, stop or state
	ev   scheduled
	now  simtime.Time
	f    uint64 // state: fired
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

func (d *agendaDriver) schedule() {
	prio := Priority(d.next() % uint8(PriorityControl+1))
	off := simtime.Duration(d.next() % 8)
	ev := scheduled{at: d.ag.Now().Add(off), prio: prio, n: d.n}
	d.n++
	h := func(now simtime.Time) {
		d.observe(observation{kind: "fire", ev: ev, now: now})
		for n := d.next() % 4; n > 0; n-- {
			switch d.next() % numActs {
			case actAt:
				d.schedule()
			case actStop:
				d.ag.Stop()
				d.observe(observation{kind: "stop"})
			}
		}
	}
	d.ag.At(ev.at, prio, h)
	d.observe(observation{kind: "sched", ev: ev})
}

// state logs the counters.
func (d *agendaDriver) state() {
	d.observe(observation{kind: "state", now: d.ag.Now(), f: d.ag.Fired()})
}

// run executes the whole script, then drains the agenda. Every top-level
// step ends at a quiescent point.
func (d *agendaDriver) run() []observation {
	for d.pos < len(d.data) {
		switch d.next() % numOps {
		case opAt:
			d.schedule()
		case opRun:
			d.ag.Run(d.ag.Now().Add(simtime.Duration(d.next() % 16)))
		case opRunAll:
			d.ag.Run(simtime.Never)
		case opReset:
			d.ag.Reset()
			d.n = 0
		case opStop:
			d.ag.Stop()
		}
		d.state()
	}
	d.ag.Run(simtime.Never)
	d.state()
	return d.log
}

// script assembles fuzz seeds readably.
type script []byte

func (s script) at(prio Priority, off byte) script { return append(s, opAt, byte(prio), off) }
func (s script) run(h byte) script                 { return append(s, opRun, h) }
func (s script) runAll() script                    { return append(s, opRunAll) }
func (s script) reset() script                     { return append(s, opReset) }
func (s script) stop() script                      { return append(s, opStop) }

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
func actHalt() []byte                         { return []byte{actStop} }

// FuzzAgendaMatchesReference drives the engine and refAgenda through the
// same script of At, Run, Stop (inside handlers too) and Reset calls, and
// requires identical logs: dispatch order, and Fired and Now at every
// quiescent point.
func FuzzAgendaMatchesReference(f *testing.F) {
	// Same-instant ties across and within priority bands.
	f.Add([]byte(script{}.
		at(PriorityControl, 3).at(PriorityHardware, 3).at(PrioritySignal, 3).
		at(PriorityPipeline, 3).at(PriorityPipeline, 3).at(PriorityInput, 1).
		runAll()))
	// Batch spill: the first handler of an instant schedules two events
	// in bands ahead of the rest of the batch, which spills back into the
	// heap.
	f.Add([]byte(script{}.
		at(PrioritySignal, 2).at(PriorityControl, 2).at(PriorityControl, 2).
		run(5).
		// event 0 fires and schedules events 3 and 4
		fires(actSched(PriorityHardware, 0), actSched(PriorityPipeline, 0)).
		// events 3 and 4 fire ahead of the spilled events 1 and 2
		fires().fires().fires().fires().
		runAll()))
	// Stop from inside a handler leaves the batch's tail pending, and the
	// next Run dispatches it.
	f.Add([]byte(script{}.
		at(PriorityHardware, 0).at(PriorityPipeline, 0).at(PriorityControl, 0).
		run(0).
		fires(actHalt()).
		run(0).
		fires().fires().
		runAll()))
	// A top-level Stop must not halt the next Run.
	f.Add([]byte(script{}.
		at(PriorityPipeline, 1).at(PriorityControl, 4).
		stop().run(2).
		fires().
		stop().runAll().
		fires()))
	// Reset drops what a Stop left pending and rewinds the clock and the
	// sequence numbers.
	f.Add([]byte(script{}.
		at(PriorityHardware, 2).at(PriorityInput, 7).
		run(3).
		fires(actHalt()).
		reset().
		at(PrioritySignal, 4).at(PriorityHardware, 4).runAll().
		fires().fires()))

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
