package event

import (
	"sort"
	"testing"
	"testing/quick"

	"dvsync/internal/simtime"
)

func TestFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []simtime.Time
	times := []simtime.Time{50, 10, 30, 20, 40}
	for _, at := range times {
		at := at
		e.At(at, PriorityControl, func(now simtime.Time) {
			if now != at {
				t.Errorf("handler time %v, scheduled %v", now, at)
			}
			got = append(got, now)
		})
	}
	e.RunAll()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("events out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Errorf("fired %d events, want %d", len(got), len(times))
	}
}

func TestSameInstantPriorityOrder(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(10, PriorityControl, func(simtime.Time) { got = append(got, "control") })
	e.At(10, PriorityHardware, func(simtime.Time) { got = append(got, "hw") })
	e.At(10, PrioritySignal, func(simtime.Time) { got = append(got, "signal") })
	e.RunAll()
	want := []string{"hw", "signal", "control"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFOWithinPriority(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, PriorityPipeline, func(simtime.Time) { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(10, PriorityControl, func(simtime.Time) { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel should return false")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var second simtime.Time
	e.At(100, PriorityControl, func(simtime.Time) {
		e.After(50, PriorityControl, func(now simtime.Time) { second = now })
	})
	e.RunAll()
	if second != 150 {
		t.Errorf("After fired at %v, want 150", second)
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	var fired []simtime.Time
	for _, at := range []simtime.Time{10, 20, 30, 40} {
		e.At(at, PriorityControl, func(now simtime.Time) { fired = append(fired, now) })
	}
	e.Run(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Errorf("engine time %v, want horizon 25", e.Now())
	}
	e.RunAll()
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(10, PriorityControl, func(simtime.Time) { count++; e.Stop() })
	e.At(20, PriorityControl, func(simtime.Time) { count++ })
	e.RunAll()
	if count != 1 {
		t.Errorf("count = %d after Stop, want 1", count)
	}
	e.RunAll()
	if count != 2 {
		t.Errorf("count = %d after resume, want 2", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, PriorityControl, func(simtime.Time) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, PriorityControl, func(simtime.Time) {})
	})
	e.RunAll()
}

func TestPendingAndFiredCounters(t *testing.T) {
	e := NewEngine()
	e.At(1, PriorityControl, func(simtime.Time) {})
	e.At(2, PriorityControl, func(simtime.Time) {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.RunAll()
	if e.Pending() != 0 || e.Fired() != 2 {
		t.Errorf("Pending=%d Fired=%d", e.Pending(), e.Fired())
	}
}

// Property: for any set of (time, priority) pairs, dispatch order is the
// lexicographic (time, priority, insertion) order.
func TestDispatchOrderProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		e := NewEngine()
		type key struct {
			at   simtime.Time
			prio Priority
			seq  int
		}
		var want []key
		var got []key
		for i, spec := range raw {
			k := key{simtime.Time(spec >> 8 & 0xffff), Priority(spec % 5), i}
			want = append(want, k)
			e.At(k.at, k.prio, func(simtime.Time) { got = append(got, k) })
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].prio < want[j].prio
		})
		e.RunAll()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTickerBasic(t *testing.T) {
	e := NewEngine()
	var ticks []simtime.Time
	tk := NewTicker(e, 100, PriorityHardware, func(now simtime.Time) {
		ticks = append(ticks, now)
		if len(ticks) == 5 {
			e.Stop()
		}
	})
	tk.Start(0)
	e.RunAll()
	want := []simtime.Time{0, 100, 200, 300, 400}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
	if tk.Ticks() != 5 {
		t.Errorf("Ticks() = %d", tk.Ticks())
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = NewTicker(e, 10, PriorityHardware, func(now simtime.Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	tk.Start(0)
	e.Run(1000)
	if count != 3 {
		t.Errorf("count = %d after Stop, want 3", count)
	}
	if tk.Active() {
		t.Error("ticker still active after Stop")
	}
}

func TestTickerPeriodChange(t *testing.T) {
	e := NewEngine()
	var ticks []simtime.Time
	var tk *Ticker
	tk = NewTicker(e, 100, PriorityHardware, func(now simtime.Time) {
		ticks = append(ticks, now)
		if now == 200 {
			// Switch to 50 from the tick after next (the successor at 300
			// is already scheduled); emulate an LTPO-style change by
			// rescheduling immediately instead.
			tk.SetPeriod(50)
			tk.Reschedule(now.Add(50))
		}
	})
	tk.Start(0)
	e.Run(400)
	want := []simtime.Time{0, 100, 200, 250, 300, 350, 400}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
}

func TestTickerDoubleStartPanics(t *testing.T) {
	e := NewEngine()
	tk := NewTicker(e, 10, PriorityHardware, func(simtime.Time) {})
	tk.Start(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double Start")
		}
	}()
	tk.Start(5)
}

func TestWatchdogTripsOnStalledAgenda(t *testing.T) {
	e := NewEngine()
	e.SetInstantLimit(100)
	var loop Handler
	loop = func(now simtime.Time) { e.After(0, PriorityControl, loop) }
	e.At(5, PriorityControl, loop)
	e.RunAll()
	err := e.Err()
	if err == nil {
		t.Fatal("stalled agenda did not trip the watchdog")
	}
	wd, ok := err.(*WatchdogError)
	if !ok {
		t.Fatalf("Err() = %T, want *WatchdogError", err)
	}
	if wd.At != 5 {
		t.Fatalf("watchdog At = %v, want 5", wd.At)
	}
	if wd.Dispatched != 100 {
		t.Fatalf("watchdog Dispatched = %d, want the limit 100", wd.Dispatched)
	}
	if wd.LastPriority != PriorityControl {
		t.Fatalf("watchdog LastPriority = %v, want PriorityControl", wd.LastPriority)
	}
	// The loop schedules one event per dispatch starting from id/seq 1, so
	// the 100th dispatched event is exactly id 100 / seq 100 — the error
	// pins the offending event deterministically.
	if wd.LastSeq != 100 || wd.LastID != 100 {
		t.Fatalf("watchdog last event = seq %d id %d, want 100/100", wd.LastSeq, wd.LastID)
	}
	// The text enters Result.WatchdogTripped and through it the
	// determinism digests, so it is pinned byte for byte.
	const want = "event: no-progress watchdog: 100 events dispatched at t=0.000ms " +
		"without the clock advancing (last event: priority=4 seq=100 id=100)"
	if got := err.Error(); got != want {
		t.Fatalf("watchdog error = %q, want %q", got, want)
	}
}

func TestWatchdogDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		e := NewEngine()
		e.SetInstantLimit(64)
		var loop Handler
		loop = func(now simtime.Time) { e.After(0, PrioritySignal, loop) }
		e.At(3, PrioritySignal, loop)
		e.RunAll()
		return e.Err().Error()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("watchdog error diverged between runs:\n%s\n%s", first, got)
		}
	}
}

func TestWatchdogIgnoresAdvancingClock(t *testing.T) {
	e := NewEngine()
	e.SetInstantLimit(100)
	n := 0
	var chain Handler
	chain = func(now simtime.Time) {
		n++
		if n < 1000 {
			e.After(1, PriorityControl, chain)
		}
	}
	e.At(0, PriorityControl, chain)
	e.RunAll()
	if err := e.Err(); err != nil {
		t.Fatalf("advancing chain tripped the watchdog: %v", err)
	}
	if n != 1000 {
		t.Fatalf("chain dispatched %d times, want 1000", n)
	}
}

func TestWatchdogAllowsBurstsBelowLimit(t *testing.T) {
	e := NewEngine()
	e.SetInstantLimit(100)
	fired := 0
	for i := 0; i < 99; i++ {
		e.At(7, PriorityControl, func(simtime.Time) { fired++ })
	}
	e.At(8, PriorityControl, func(simtime.Time) { fired++ })
	e.RunAll()
	if err := e.Err(); err != nil {
		t.Fatalf("burst below the limit tripped the watchdog: %v", err)
	}
	if fired != 100 {
		t.Fatalf("fired %d events, want 100", fired)
	}
}

func TestWatchdogPoisonsSubsequentRuns(t *testing.T) {
	e := NewEngine()
	e.SetInstantLimit(10)
	var loop Handler
	loop = func(now simtime.Time) { e.After(0, PriorityControl, loop) }
	e.At(1, PriorityControl, loop)
	e.RunAll()
	if e.Err() == nil {
		t.Fatal("watchdog did not trip")
	}
	before := e.Fired()
	e.RunAll() // must refuse to resume the poisoned agenda
	if e.Fired() != before {
		t.Fatal("engine resumed dispatching after watchdog trip")
	}
}

func TestSetInstantLimitRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive instant limit accepted")
		}
	}()
	NewEngine().SetInstantLimit(0)
}
