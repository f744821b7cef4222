package signal

import (
	"testing"

	"dvsync/internal/event"
	"dvsync/internal/simtime"
)

func TestZeroOffsetDeliversSynchronously(t *testing.T) {
	e := event.NewEngine()
	d := NewDistributor(e, nil)
	var got []Event
	d.Subscribe(VSyncApp, func(ev Event) { got = append(got, ev) })
	d.OnHWEdge(100, 7, 16)
	if len(got) != 1 {
		t.Fatalf("delivered %d events", len(got))
	}
	ev := got[0]
	if ev.At != 100 || ev.HWEdge != 100 || ev.EdgeSeq != 7 || ev.Period != 16 || ev.Kind != VSyncApp {
		t.Errorf("event %+v", ev)
	}
}

func TestOffsetDelaysDelivery(t *testing.T) {
	e := event.NewEngine()
	d := NewDistributor(e, map[Kind]simtime.Duration{VSyncRS: 500})
	var at simtime.Time
	d.Subscribe(VSyncRS, func(ev Event) { at = ev.At })
	e.At(100, event.PriorityHardware, func(now simtime.Time) { d.OnHWEdge(now, 0, 16) })
	e.RunAll()
	if at != 600 {
		t.Errorf("delivered at %v, want 600", at)
	}
}

func TestNoListenersNoEvents(t *testing.T) {
	e := event.NewEngine()
	d := NewDistributor(e, map[Kind]simtime.Duration{VSyncSF: 100})
	d.OnHWEdge(0, 0, 16)
	if e.Pending() != 0 {
		t.Errorf("%d events scheduled with no listeners", e.Pending())
	}
}

func TestInjectDVSync(t *testing.T) {
	e := event.NewEngine()
	d := NewDistributor(e, nil)
	var got []Event
	d.Subscribe(DVSync, func(ev Event) { got = append(got, ev) })
	d.InjectDVSync(250, 200, 12, 16)
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if got[0].Kind != DVSync || got[0].At != 250 || got[0].HWEdge != 200 {
		t.Errorf("event %+v", got[0])
	}
	if d.Delivered(DVSync) != 1 {
		t.Errorf("Delivered = %d", d.Delivered(DVSync))
	}
}

func TestMultipleSubscribers(t *testing.T) {
	e := event.NewEngine()
	d := NewDistributor(e, nil)
	n := 0
	d.Subscribe(VSyncApp, func(Event) { n++ })
	d.Subscribe(VSyncApp, func(Event) { n++ })
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
	NewDistributor(event.NewEngine(), map[Kind]simtime.Duration{VSyncApp: -1})
}

// TestUnknownKindOffsetPanics: offsets are indexed by kind, so a kind
// outside the enumeration is a wiring bug caught at construction.
func TestUnknownKindOffsetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for an offset of an unknown kind")
		}
	}()
	NewDistributor(event.NewEngine(), map[Kind]simtime.Duration{DVSync + 1: 0})
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		VSyncApp: "VSync-app", VSyncRS: "VSync-rs", VSyncSF: "VSync-sf", DVSync: "D-VSync",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
