package event

import (
	"fmt"

	"dvsync/internal/simtime"
)

// This file is the engine's checkpoint surface. A snapshot is taken at a
// quiescent boundary (between Run segments), so the only engine state that
// matters is the scalar counters plus the live agenda. Each agenda entry is
// re-inserted by the subsystem that owns its handler — closures cannot be
// serialised — carrying its exact (at, prio, seq, id) identity so post-resume
// dispatch order, including same-instant tie-breaks, matches an uninterrupted
// run. The free list and tombstone bookkeeping are deliberately *not* state:
// cancelled entries never fire, and the free list only affects allocation
// counts, never dispatch order.
//
// Everything here runs once per snapshot or resume, outside the dispatch
// loop, so its allocations carry explicit hotalloc waivers (the package-wide
// hotpath directive cannot be scoped out per file).

// ScheduledEvent is the engine-level identity of one live agenda entry.
type ScheduledEvent struct {
	At   simtime.Time `json:"at"`
	Prio Priority     `json:"prio"`
	Seq  uint64       `json:"seq"`
	ID   ID           `json:"id"`
}

// State holds the engine's scalar scheduling state. Restoring it (and every
// live event) makes post-resume At calls issue the same sequence numbers and
// IDs as the uninterrupted run.
type State struct {
	Now    simtime.Time `json:"now"`
	Seq    uint64       `json:"seq"`
	NextID ID           `json:"next_id"`
	Fired  uint64       `json:"fired"`
}

// Stopped reports whether the last Run call ended via Stop.
func (e *Engine) Stopped() bool { return e.stopped }

// State captures the scalar scheduling state for a checkpoint.
func (e *Engine) State() State {
	return State{Now: e.now, Seq: e.seq, NextID: e.nextID, Fired: e.fired}
}

// Lookup returns the scheduling identity of a live event. Like Cancel it
// scans the agenda; it runs once per owner at checkpoint capture.
func (e *Engine) Lookup(id ID) (ScheduledEvent, bool) {
	if it, _ := e.find(id); it != nil {
		return ScheduledEvent{At: it.at, Prio: it.prio, Seq: it.seq, ID: it.id}, true
	}
	return ScheduledEvent{}, false
}

// Restore loads checkpointed scalar state into a freshly constructed engine.
// Restoring into an engine that has scheduled or dispatched anything is
// rejected: partial restores would corrupt the identity counters.
func (e *Engine) Restore(st State) error {
	if e.live != 0 || len(e.events) != 0 || e.seq != 0 || e.fired != 0 || e.now != 0 {
		//dvlint:ignore hotalloc once-per-resume error path
		return fmt.Errorf("event: restore into a non-fresh engine")
	}
	if st.Now < 0 {
		//dvlint:ignore hotalloc once-per-resume error path
		return fmt.Errorf("event: restored clock %v is negative", st.Now)
	}
	if uint64(st.NextID) != st.Seq {
		// At increments both counters in lockstep; divergence means the
		// snapshot was not produced by this engine.
		//dvlint:ignore hotalloc once-per-resume error path
		return fmt.Errorf("event: restored id counter %d does not match seq counter %d", uint64(st.NextID), st.Seq)
	}
	e.now, e.seq, e.nextID, e.fired = st.Now, st.Seq, st.NextID, st.Fired
	return nil
}

// RestoreEvent re-inserts one checkpointed agenda entry with its exact
// scheduling identity. Entries may be restored in any order; validation
// rejects identities the engine could not have issued.
func (e *Engine) RestoreEvent(ev ScheduledEvent, fn Handler) error {
	if fn == nil {
		//dvlint:ignore hotalloc once-per-resume error path
		return fmt.Errorf("event: restore of event id=%d with nil handler", uint64(ev.ID))
	}
	if ev.At < e.now {
		//dvlint:ignore hotalloc once-per-resume error path
		return fmt.Errorf("event: restored event at %v before now %v", ev.At, e.now)
	}
	if ev.Seq == 0 || ev.Seq > e.seq {
		//dvlint:ignore hotalloc once-per-resume error path
		return fmt.Errorf("event: restored seq %d outside issued range [1, %d]", ev.Seq, e.seq)
	}
	if ev.ID == 0 || ev.ID > e.nextID {
		//dvlint:ignore hotalloc once-per-resume error path
		return fmt.Errorf("event: restored id %d outside issued range [1, %d]", uint64(ev.ID), uint64(e.nextID))
	}
	if ev.Prio < PriorityHardware || ev.Prio > PriorityControl {
		//dvlint:ignore hotalloc once-per-resume error path
		return fmt.Errorf("event: restored priority %d out of range", int(ev.Prio))
	}
	if it, _ := e.find(ev.ID); it != nil {
		//dvlint:ignore hotalloc once-per-resume error path
		return fmt.Errorf("event: duplicate restored id %d", uint64(ev.ID))
	}
	for _, it := range e.events {
		if it.seq == ev.Seq {
			// Sequence numbers break same-instant ties; a duplicate would make
			// dispatch order between the two entries unspecified.
			//dvlint:ignore hotalloc once-per-resume error path
			return fmt.Errorf("event: duplicate restored seq %d", ev.Seq)
		}
	}
	//dvlint:ignore hotalloc once-per-resume agenda rebuild
	it := &item{at: ev.At, prio: ev.Prio, seq: ev.Seq, id: ev.ID, fn: fn}
	e.events.push(it)
	e.live++
	return nil
}
