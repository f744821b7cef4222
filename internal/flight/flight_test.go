package flight

import (
	"reflect"
	"testing"

	"dvsync/internal/simtime"
	"dvsync/internal/trace"
)

func ev(atMs int64, kind trace.EventKind, frame int, detail string) trace.Event {
	return trace.Event{At: simtime.Time(atMs) * simtime.Time(simtime.Millisecond),
		Kind: kind, Frame: frame, Detail: detail}
}

// TestRingRetention: the ring keeps the newest Capacity events in order
// and evicts the oldest beyond it.
func TestRingRetention(t *testing.T) {
	r := New(Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		r.Add(ev(int64(i), trace.FrameStart, i, ""))
	}
	got := r.Events()
	if len(got) != 4 || r.Len() != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	for i, e := range got {
		if e.Frame != 6+i {
			t.Errorf("slot %d holds frame %d, want %d", i, e.Frame, 6+i)
		}
	}
}

// TestRingRejectsOutOfOrder: recording time must be non-decreasing, like
// trace.Recorder.
func TestRingRejectsOutOfOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	r := New(Config{})
	r.Add(ev(10, trace.FrameStart, 0, ""))
	r.Add(ev(5, trace.FrameStart, 1, ""))
}

// TestJankBurstTrigger: JankBurst janks inside JankWindow snapshot the
// window; janks spread wider than the window do not.
func TestJankBurstTrigger(t *testing.T) {
	r := New(Config{JankBurst: 3, JankWindow: 100 * simtime.Millisecond})
	for i, at := range []int64{0, 40, 80} {
		r.Add(ev(at, trace.Jank, i, ""))
	}
	if n := len(r.Dumps()); n != 1 {
		t.Fatalf("burst inside window produced %d dumps, want 1", n)
	}
	d := r.Dumps()[0]
	if d.Trigger.Kind != TriggerJankBurst || d.SchemaVersion != trace.SchemaVersion {
		t.Errorf("dump trigger %q schema v%d, want %q v%d",
			d.Trigger.Kind, d.SchemaVersion, TriggerJankBurst, trace.SchemaVersion)
	}
	if len(d.Events) != 3 {
		t.Errorf("dump carries %d events, want the 3 retained", len(d.Events))
	}

	slow := New(Config{JankBurst: 3, JankWindow: 100 * simtime.Millisecond})
	for i, at := range []int64{0, 90, 180} {
		slow.Add(ev(at, trace.Jank, i, ""))
	}
	if n := len(slow.Dumps()); n != 0 {
		t.Errorf("janks wider than the window produced %d dumps, want 0", n)
	}
}

// TestTriggerCooldown: a second same-kind trigger inside the cooldown is
// suppressed; past it, it fires again.
func TestTriggerCooldown(t *testing.T) {
	r := New(Config{JankBurst: 2, JankWindow: 100 * simtime.Millisecond,
		Cooldown: 500 * simtime.Millisecond})
	for i, at := range []int64{0, 50, 100, 150} { // two bursts, 100 ms apart
		r.Add(ev(at, trace.Jank, i, ""))
	}
	if n := len(r.Dumps()); n != 1 {
		t.Fatalf("re-trigger inside cooldown produced %d dumps, want 1", n)
	}
	r.Add(ev(700, trace.Jank, 4, ""))
	r.Add(ev(710, trace.Jank, 5, ""))
	if n := len(r.Dumps()); n != 2 {
		t.Errorf("re-trigger past cooldown produced %d dumps, want 2", n)
	}
}

// TestFallbackTriggerDirection: only the §4.5 D-VSync→VSync direction is
// an anomaly; recovery back to D-VSync is not.
func TestFallbackTriggerDirection(t *testing.T) {
	r := New(Config{})
	r.Add(ev(10, trace.Fallback, -1, "to=VSync reason=fdps"))
	r.Add(ev(900, trace.Fallback, -1, "to=D-VSync reason=none"))
	dumps := r.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("%d dumps, want 1 (recovery must not trigger)", len(dumps))
	}
	if dumps[0].Trigger.Kind != TriggerFallback || dumps[0].Trigger.Detail != "to=VSync reason=fdps" {
		t.Errorf("trigger = %+v, want fallback with the event detail", dumps[0].Trigger)
	}
}

// TestWatchdogAndFaultOnsetTriggers: both remaining trigger kinds fire,
// and distinct kinds do not share a cooldown.
func TestWatchdogAndFaultOnsetTriggers(t *testing.T) {
	r := New(Config{Cooldown: simtime.Second})
	r.Add(ev(10, trace.FaultOnset, -1, "class=stall episode=0 severity=1"))
	r.TripWatchdog(simtime.Time(20*simtime.Millisecond), "starved")
	dumps := r.Dumps()
	if len(dumps) != 2 {
		t.Fatalf("%d dumps, want 2 (kinds have independent cooldowns)", len(dumps))
	}
	if dumps[0].Trigger.Kind != TriggerFaultOnset || dumps[1].Trigger.Kind != TriggerWatchdog {
		t.Errorf("trigger kinds = %q, %q", dumps[0].Trigger.Kind, dumps[1].Trigger.Kind)
	}
}

// TestMaxDumpsCap: the per-run dump bound holds across trigger kinds.
func TestMaxDumpsCap(t *testing.T) {
	r := New(Config{MaxDumps: 2, Cooldown: simtime.Millisecond, JankBurst: 2,
		JankWindow: simtime.Second})
	for i := 0; i < 40; i++ {
		r.Add(ev(int64(i*10), trace.Jank, i, ""))
	}
	r.TripWatchdog(simtime.Time(simtime.Second), "starved")
	if n := len(r.Dumps()); n != 2 {
		t.Errorf("%d dumps, want the MaxDumps cap of 2", n)
	}
}

// TestResetRecyclesDumpStorage: a reused ring reproduces the previous
// run's dumps byte-for-byte without keeping stale state, and the second
// run's snapshots are correct even though they reuse the first run's dump
// list.
func TestResetRecyclesDumpStorage(t *testing.T) {
	run := func(r *Ring) []Dump {
		for i, at := range []int64{0, 40, 80} {
			r.Add(ev(at, trace.Jank, i, ""))
		}
		dumps := r.Dumps()
		out := make([]Dump, len(dumps))
		for i, d := range dumps {
			out[i] = Dump{SchemaVersion: d.SchemaVersion, Trigger: d.Trigger,
				Events: append([]trace.Event(nil), d.Events...)}
		}
		return out
	}
	r := New(Config{JankBurst: 3, JankWindow: 100 * simtime.Millisecond})
	first := run(r)
	r.Reset()
	if r.Len() != 0 || len(r.Dumps()) != 0 || len(r.Events()) != 0 {
		t.Fatal("Reset left retained events or dumps behind")
	}
	second := run(r)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("reused ring dumps differ:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestDumpIDShape: ids are digest-prefixed, zero-padded, and kind-tagged.
func TestDumpIDShape(t *testing.T) {
	got := DumpID("3f8a2c91b4d0ffffffff", 7, TriggerJankBurst)
	if got != "3f8a2c91b4d0-07-jank-burst" {
		t.Errorf("DumpID = %q", got)
	}
	if short := DumpID("ab", 0, TriggerWatchdog); short != "ab-00-watchdog" {
		t.Errorf("short-digest DumpID = %q", short)
	}
}
