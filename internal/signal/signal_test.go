package signal

import (
	"testing"

	"dvsync/internal/event"
	"dvsync/internal/simtime"
)

func TestZeroOffsetDeliversSynchronously(t *testing.T) {
	e := event.NewEngine()
	var got []simtime.Time
	d := NewDistributor(e, 0, func(at simtime.Time) { got = append(got, at) })
	d.OnHWEdge(100, 7, 16)
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("delivered %v, want [100] at the edge", got)
	}
	if e.Run(simtime.Never); e.Fired() != 0 {
		t.Errorf("zero-offset delivery scheduled %d events", e.Fired())
	}
}

func TestOffsetDelaysDelivery(t *testing.T) {
	e := event.NewEngine()
	var at simtime.Time
	d := NewDistributor(e, 500, func(now simtime.Time) { at = now })
	e.At(100, event.PriorityHardware, func(now simtime.Time) { d.OnHWEdge(now, 0, 16) })
	e.Run(simtime.Never)
	if at != 600 {
		t.Errorf("delivered at %v, want 600", at)
	}
}

func TestNegativeOffsetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative offset")
		}
	}()
	NewDistributor(event.NewEngine(), -1, func(simtime.Time) {})
}
