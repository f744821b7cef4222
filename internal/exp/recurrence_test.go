package exp

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"dvsync/internal/fault"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
	"dvsync/internal/vsyncrec"
	"dvsync/internal/workload"
)

// TestVSyncConfigInRecurrenceDomain keeps every configuration calibration
// probes inside the recurrence's domain: for each device and 2–5 buffers,
// VSyncConfig must be a run the recurrence reproduces exactly, so a device
// edit cannot silently move calibration off the simulator's semantics. It
// also checks that the domain rejects what the recurrence does not model.
func TestVSyncConfigInRecurrenceDomain(t *testing.T) {
	for _, dev := range scenarios.Devices() {
		for b := 2; b <= 5; b++ {
			if !inRecurrenceDomain(VSyncConfig(dev, b)) {
				t.Errorf("%s, %d buffers: VSyncConfig is outside the recurrence's domain", dev.Name, b)
			}
		}
	}
	faults, err := fault.Scenario(fault.Classes()[0], 0.5, 0, simtime.Time(simtime.Second), 1)
	if err != nil {
		t.Fatal(err)
	}
	outside := map[string]func(*sim.Config){
		"dvsync":   func(c *sim.Config) { c.Mode = sim.ModeDVSync },
		"jitter":   func(c *sim.Config) { c.Panel.JitterStdDev = simtime.Microsecond },
		"skew":     func(c *sim.Config) { c.Panel.PeriodSkewPPM = 50 },
		"faults":   func(c *sim.Config) { c.Faults = faults },
		"stale":    func(c *sim.Config) { c.DropStaleBuffers = true },
		"watchdog": func(c *sim.Config) { c.MaxSimTime = simtime.Second },
	}
	for name, edit := range outside {
		cfg := VSyncConfig(scenarios.Pixel5, 3)
		edit(&cfg)
		if inRecurrenceDomain(cfg) {
			t.Errorf("%s: the domain admits a config the recurrence does not model", name)
		}
	}
}

// probeDiff describes the first field the recurrence's result disagrees on
// with the event simulator's run of the same trace, or returns "".
func probeDiff(got *vsyncrec.Result, want *sim.Result) string {
	if len(got.Janks) != len(want.Janks) {
		return fmt.Sprintf("%d janks, simulator %d", len(got.Janks), len(want.Janks))
	}
	for i, j := range got.Janks {
		if w := want.Janks[i]; j.EdgeSeq != w.EdgeSeq || j.KeyFrame != w.KeyFrame {
			return fmt.Sprintf("jank %d at edge %d key %t, simulator edge %d key %t",
				i, j.EdgeSeq, j.KeyFrame, w.EdgeSeq, w.KeyFrame)
		}
	}
	if got.FirstLatch != want.FirstLatch || got.LastLatch != want.LastLatch ||
		got.Presented != len(want.Presented) || got.Skipped != want.Skipped ||
		got.Completed != want.Completed || got.Jank() != want.Jank() {
		return fmt.Sprintf("latches %v..%v, %d presented, %d skipped, report %+v; simulator %v..%v, %d, %d, %+v",
			got.FirstLatch, got.LastLatch, got.Presented, got.Skipped, got.Jank(),
			want.FirstLatch, want.LastLatch, len(want.Presented), want.Skipped, want.Jank())
	}
	return ""
}

// TestSuiteProbesMatchSimulator renders the whole paper suite from a cold
// calibration cache with a checker beside every calibration probe, FDPS
// and stutter searches alike: each probe's trace is re-run on a reused
// event-simulator Runner, and the recurrence must agree on every run.
func TestSuiteProbesMatchSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("renders all 23 experiments")
	}
	var checked, mismatched atomic.Int64
	probeOracle = func(cfg sim.Config) func(*workload.Trace, *vsyncrec.Result) {
		rn := runnerFor(cfg)
		return func(tr *workload.Trace, got *vsyncrec.Result) {
			checked.Add(1)
			if d := probeDiff(got, rn.RunTrace(tr)); d != "" && mismatched.Add(1) <= 5 {
				t.Errorf("%d Hz, %d buffers, %d-frame %s trace: %s",
					cfg.Panel.RefreshHz, cfg.Buffers, tr.Len(), tr.Name, d)
			}
		}
	}
	defer func() { probeOracle = nil }()
	resetCalibCache()
	for _, e := range Registry() {
		e.Run(io.Discard)
	}
	if checked.Load() == 0 {
		t.Fatal("no calibration probe ran")
	}
	if n := mismatched.Load(); n > 0 {
		t.Errorf("%d of %d probes disagree with the simulator", n, checked.Load())
	}
	t.Logf("%d probes of %d searches checked", checked.Load(), calibSearches.Load())
}
