package signal

import (
	"fmt"

	"dvsync/internal/event"
	"dvsync/internal/simtime"
)

// DeliveredCount is one kind's delivery counter (serialised as a sorted
// slice, never a map, so encoding order is deterministic).
type DeliveredCount struct {
	Kind  Kind   `json:"kind"`
	Count uint64 `json:"count"`
}

// PendingDelivery is one delayed software signal in flight at snapshot time.
type PendingDelivery struct {
	Ev    Event                `json:"ev"`
	Sched event.ScheduledEvent `json:"sched"`
}

// State is the distributor's serialisable checkpoint state.
type State struct {
	Delivered []DeliveredCount  `json:"delivered,omitempty"`
	Pending   []PendingDelivery `json:"pending,omitempty"`
}

// State captures the distributor for a checkpoint.
func (d *Distributor) State() (State, error) {
	var st State
	for k, n := range d.delivered {
		if n > 0 {
			st.Delivered = append(st.Delivered, DeliveredCount{Kind: Kind(k), Count: n})
		}
	}
	for _, pe := range d.pending {
		sched, ok := d.engine.Lookup(pe.id)
		if !ok {
			return State{}, fmt.Errorf("signal: pending %v delivery has no scheduled event", pe.ev.Kind)
		}
		st.Pending = append(st.Pending, PendingDelivery{Ev: pe.ev, Sched: sched})
	}
	return st, nil
}

// Restore loads checkpointed state into a freshly constructed distributor
// and re-inserts the in-flight delayed deliveries.
func (d *Distributor) Restore(st State) error {
	if len(d.pending) != 0 {
		return fmt.Errorf("signal: restore into a used distributor")
	}
	for _, dc := range st.Delivered {
		if !dc.Kind.known() {
			return fmt.Errorf("signal: restored delivery counter for unknown kind %d", int(dc.Kind))
		}
		d.delivered[dc.Kind] = dc.Count
	}
	for i := range st.Pending {
		p := st.Pending[i]
		if !p.Ev.Kind.known() {
			return fmt.Errorf("signal: restored pending delivery of unknown kind %d", int(p.Ev.Kind))
		}
		pe := &pendingDelivery{ev: p.Ev, id: p.Sched.ID}
		if err := d.engine.RestoreEvent(p.Sched, func(simtime.Time) { d.deliverPending(pe) }); err != nil {
			return fmt.Errorf("signal: %w", err)
		}
		d.pending = append(d.pending, pe)
	}
	return nil
}
