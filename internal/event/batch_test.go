package event

import (
	"strings"
	"testing"

	"dvsync/internal/simtime"
)

// TestBatchOrderGuardSameInstantLowerPriority is the adversarial case of
// batched dispatch: a handler schedules a same-instant event in a LOWER
// priority band than items already drained into the batch. The order
// guard must spill the remaining batch back and dispatch the newcomer in
// its correct (prio, seq) slot, exactly as unbatched dispatch would.
func TestBatchOrderGuardSameInstantLowerPriority(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(10, PriorityPipeline, func(now simtime.Time) {
		got = append(got, "pipeline")
		// Same instant, higher-urgency band than the already-drained
		// PriorityControl item below.
		e.At(10, PriorityInput, func(simtime.Time) { got = append(got, "input") })
	})
	e.At(10, PriorityControl, func(simtime.Time) { got = append(got, "control") })
	e.Run(simtime.Never)
	want := []string{"pipeline", "input", "control"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestBatchSameInstantFIFOAfterSpill checks that a spill-and-redrain
// preserves FIFO order within a priority band: the re-pushed batch items
// keep their original seq, so they still dispatch before later-scheduled
// same-priority work.
func TestBatchSameInstantFIFOAfterSpill(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(5, PriorityHardware, func(simtime.Time) {
		got = append(got, 0)
		// Forces a spill of the two PriorityPipeline items drained below.
		e.At(5, PrioritySignal, func(simtime.Time) { got = append(got, 1) })
	})
	e.At(5, PriorityPipeline, func(simtime.Time) { got = append(got, 2) })
	e.At(5, PriorityPipeline, func(simtime.Time) { got = append(got, 3) })
	e.Run(simtime.Never)
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestStopMidBatchLeavesRemainderPending stops the engine from inside a
// batch: the undispatched tail must return to the agenda as pending work,
// not be dropped, so a later Run still dispatches it.
func TestStopMidBatchLeavesRemainderPending(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, PriorityHardware, func(simtime.Time) {
		got = append(got, 0)
		e.Stop()
	})
	e.At(10, PriorityControl, func(simtime.Time) { got = append(got, 1) })
	e.Run(100)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("fired %v before stop, want [0]", got)
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired() = %d after mid-batch stop, want 1", e.Fired())
	}
	e.Run(simtime.Never)
	if len(got) != 2 || got[1] != 1 {
		t.Fatalf("fired %v after drain, want [0 1]", got)
	}
}

// runScript drives one fixed schedule — including same-instant fan-out
// and a Stop that leaves an event pending, as a simulation's last edge
// does — and returns the dispatch log.
func runScript(e *Engine) []string {
	var got []string
	logf := func(s string) Handler {
		return func(now simtime.Time) { got = append(got, s) }
	}
	e.At(10, PriorityPipeline, func(now simtime.Time) {
		got = append(got, "a")
		e.At(10, PriorityInput, logf("b"))
		e.At(now.Add(5), PriorityPipeline, logf("c"))
	})
	e.At(10, PriorityControl, logf("d"))
	e.At(20, PriorityControl, logf("never"))
	e.At(16, PriorityHardware, func(now simtime.Time) {
		got = append(got, "e")
		e.Stop()
	})
	e.Run(simtime.Never)
	return got
}

// TestResetReplaysIdentically checks the Runner contract at the engine
// layer: Reset returns a used engine to its as-constructed condition,
// dropping the event a Stop left pending, and an identical schedule
// replays the identical dispatch sequence with identical counters.
func TestResetReplaysIdentically(t *testing.T) {
	e := NewEngine()
	first := runScript(e)
	firedFirst, now := e.Fired(), e.Now()
	if want := "a b d c e"; strings.Join(first, " ") != want {
		t.Fatalf("first run fired %v, want %s", first, want)
	}

	e.Reset()
	if e.Now() != 0 || e.Fired() != 0 {
		t.Fatalf("after Reset: now=%v fired=%d, want both zero", e.Now(), e.Fired())
	}
	// The event the Stop left pending is gone: nothing is left to fire.
	if e.Run(simtime.Never); e.Fired() != 0 {
		t.Fatalf("Reset kept %d pending events", e.Fired())
	}

	second := runScript(e)
	if len(first) != len(second) {
		t.Fatalf("replay fired %v, first run fired %v", second, first)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay order %v, first run %v", second, first)
		}
	}
	if e.Fired() != firedFirst || e.Now() != now {
		t.Errorf("replay counters fired=%d now=%v, first run fired=%d now=%v",
			e.Fired(), e.Now(), firedFirst, now)
	}
}

// TestResetClearsWatchdogPoison checks that Reset clears a tripped
// watchdog: the engine must run again instead of refusing with the stale
// error.
func TestResetClearsWatchdogPoison(t *testing.T) {
	e := NewEngine()
	e.SetInstantLimit(8)
	var spin Handler
	spin = func(now simtime.Time) { e.At(now, PriorityControl, spin) }
	e.At(0, PriorityControl, spin)
	e.Run(simtime.Never)
	if e.Err() == nil {
		t.Fatal("watchdog did not trip")
	}
	e.Reset()
	if e.Err() != nil {
		t.Fatalf("Err() = %v after Reset, want nil", e.Err())
	}
	fired := false
	e.At(1, PriorityControl, func(simtime.Time) { fired = true })
	e.Run(simtime.Never)
	if !fired {
		t.Error("engine did not run after Reset cleared the watchdog")
	}
}
