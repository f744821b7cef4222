package event

import "dvsync/internal/simtime"

// ScheduledEvent is the engine-level identity of one live agenda entry:
// what FuzzAgendaMatchesReference compares between the engine and its
// reference model.
type ScheduledEvent struct {
	At   simtime.Time
	Prio Priority
	Seq  uint64
	ID   ID
}

// Lookup returns the scheduling identity of a live event. Like Cancel it
// scans the agenda.
func (e *Engine) Lookup(id ID) (ScheduledEvent, bool) {
	if it, _ := e.find(id); it != nil {
		return ScheduledEvent{At: it.at, Prio: it.prio, Seq: it.seq, ID: it.id}, true
	}
	return ScheduledEvent{}, false
}
