package signal

import (
	"testing"

	"dvsync/internal/event"
	"dvsync/internal/simtime"
)

func TestZeroOffsetDeliversSynchronously(t *testing.T) {
	e := event.NewEngine()
	d := NewDistributor(e, 0)
	var got []Event
	d.Subscribe(func(ev Event) { got = append(got, ev) })
	d.OnHWEdge(100, 7, 16)
	if len(got) != 1 {
		t.Fatalf("delivered %d events", len(got))
	}
	ev := got[0]
	if ev.At != 100 || ev.HWEdge != 100 || ev.EdgeSeq != 7 || ev.Period != 16 {
		t.Errorf("event %+v", ev)
	}
}

func TestOffsetDelaysDelivery(t *testing.T) {
	e := event.NewEngine()
	d := NewDistributor(e, 500)
	var at simtime.Time
	d.Subscribe(func(ev Event) { at = ev.At })
	e.At(100, event.PriorityHardware, func(now simtime.Time) { d.OnHWEdge(now, 0, 16) })
	e.RunAll()
	if at != 600 {
		t.Errorf("delivered at %v, want 600", at)
	}
}

// TestNoListenersNoEvents: with nothing subscribed an edge schedules no
// delivery and never consults the delay hook, so a fault injector draws
// nothing for it.
func TestNoListenersNoEvents(t *testing.T) {
	e := event.NewEngine()
	d := NewDistributor(e, 100)
	d.SetDelay(func(simtime.Time) simtime.Duration {
		t.Error("delay hook consulted with no listener")
		return 0
	})
	d.OnHWEdge(0, 0, 16)
	if e.Pending() != 0 {
		t.Errorf("%d events scheduled with no listeners", e.Pending())
	}
}

func TestMultipleSubscribers(t *testing.T) {
	e := event.NewEngine()
	d := NewDistributor(e, 0)
	n := 0
	d.Subscribe(func(Event) { n++ })
	d.Subscribe(func(Event) { n++ })
	d.OnHWEdge(0, 0, 16)
	if n != 2 {
		t.Errorf("fan-out delivered %d", n)
	}
}

func TestNegativeOffsetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative offset")
		}
	}()
	NewDistributor(event.NewEngine(), -1)
}
